"""Canonical JSON: byte-identical output for identical inputs.

Floats print with ``%.17g``, the fixed 17-significant-digit form, which
round-trips every float64 (``repr`` would give the shortest form instead);
``-0.0`` prints as ``0`` and non-finite floats are refused.  Complex scalars
become two-element [re, im] arrays, arrays become row-major nested lists, and
object keys are sorted.  The writer is a tiny recursive formatter rather than
a ``json.dumps`` configuration because the float format must be pinned down
to the byte.

A finite real floating array of one or more dimensions (a transfer matrix,
a state's coordinates) skips the per-element walk: it is normalised and
checked once as a whole, its outer axes are laid out like nested lists, and
each innermost row is printed by one C-level ``%``-format call.  Every other
array, including one holding ``nan`` or ``inf``, goes through
:func:`jsonable`, so it prints, or fails, exactly as a nested list would.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_float", "jsonable", "dumps_canonical"]


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        x = 0.0  # normalize negative zero
    text = f"{x:.17g}"
    return text


def jsonable(obj):
    """Fold numpy scalars/arrays and complex numbers into JSON-ready values."""
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            return jsonable(obj.tolist())
        return [jsonable(row) for row in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def _fold(obj):
    """:func:`jsonable`, except that a finite real floating array of one or
    more dimensions stays an array, normalised to float64 without ``-0.0``,
    for :func:`_write` to print row by row.  Other arrays (0-d, non-finite,
    subclasses such as masked arrays) take the list path, so they print and
    fail exactly as before."""
    if type(obj) is np.ndarray and obj.dtype.kind == "f" and obj.ndim:
        a = obj.astype(np.float64, copy=False) + 0.0  # + 0.0 turns -0.0 into 0.0
        if np.isfinite(a).all():
            return a
    if isinstance(obj, dict):
        return {str(k): _fold(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fold(v) for v in obj]
    return jsonable(obj)


def _write(obj, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(str(k) for k in obj)
        lookup = {str(k): v for k, v in obj.items()}
        for i, k in enumerate(keys):
            out.append(pad + "  " + json.dumps(k, ensure_ascii=True) + ": ")
            _write(lookup[k], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        flat = all(isinstance(v, (int, float, bool)) or v is None for v in obj)
        if flat:
            out.append("[")
            for i, v in enumerate(obj):
                _write(v, out, indent)
                if i + 1 < len(obj):
                    out.append(", ")
            out.append("]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _write(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, np.ndarray):  # finite float64, left by _fold
        if obj.ndim > 1:
            _write(list(obj), out, indent)  # a list of row arrays: the layout above
        else:  # one C-level format call per row
            out.append("[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj.tolist()) + "]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Canonical JSON text (trailing newline included)."""
    out: list[str] = []
    _write(_fold(obj), out, 0)
    out.append("\n")
    return "".join(out)
