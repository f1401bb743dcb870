"""Description of the machine a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform
import sys


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{entry}/level").strip()
        kind = _read(f"{base}/{entry}/type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(f"{base}/{entry}/size").strip()
    return out


def _memory() -> str:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def _blas(np) -> dict:
    info = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    # the loaded OpenBLAS reports its own thread pool size
    for line in _read("/proc/self/maps").splitlines():
        path = line.split()[-1]
        if "openblas" in os.path.basename(path).lower() and ".so" in path:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    info["threads"] = fn()
                    info["library"] = os.path.basename(path)
                    return info
    info["threads"] = "unknown"
    return info


def describe() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "memory": _memory(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(np),
    }
