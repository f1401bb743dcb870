"""Canonical JSON: byte-identical output for identical inputs.

Floats print with ``%.17g``, the fixed 17-significant-digit form, which
round-trips every float64 (``repr`` would give the shortest form instead);
``-0.0`` prints as ``0`` and non-finite floats are refused.  Complex scalars
become two-element [re, im] arrays, arrays become row-major nested lists, and
object keys are sorted.  The writer is a tiny recursive formatter rather than
a ``json.dumps`` configuration because the float format must be pinned down
to the byte.

A report is written in one walk, which converts each value as it meets it
(:func:`_value`): numpy scalars and 0-d arrays become Python scalars, a
``SystemType`` its string, a ``Channel`` its wire types and kernel, and any
other dataclass (a ``StateVector``, an audit's report) its fields.  A finite
real floating array of one or more dimensions (a transfer matrix, a state's
coordinates) is normalised and checked once as a whole, its outer axes are
laid out like nested lists, and each innermost row is printed by one C-level
``%``-format call.  Every other array, including one holding ``nan`` or
``inf``, is written through ``tolist()``, so it prints, or fails, exactly as
a nested list would.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .backends.base import Channel
from .diagram import SystemType

__all__ = ["format_float", "dumps_canonical"]


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        x = 0.0  # normalize negative zero
    text = f"{x:.17g}"
    return text


def _value(obj):
    """``obj`` converted one level deep for :func:`_write`; what it holds is
    converted when the writer reaches it."""
    if isinstance(obj, np.ndarray):
        if type(obj) is np.ndarray and obj.dtype.kind == "f" and obj.ndim:
            a = obj.astype(np.float64, copy=False) + 0.0  # + 0.0 turns -0.0 into 0.0
            if np.isfinite(a).all():
                return a
        obj = obj.tolist()  # nested lists, or a 0-d array's scalar, converted below
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, SystemType):
        return str(obj)
    if isinstance(obj, Channel):
        return {"input": obj.input_type, "output": obj.output_type, "kernel": obj.kernel}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return obj


def _write(obj, out: list[str], indent: int) -> None:
    """Append the text of ``obj``, which :func:`_value` has converted."""
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
        lookup = {str(k): v for k, v in obj.items()}
        keys = sorted(lookup)
        for i, k in enumerate(keys):
            out.append(pad + "  " + json.dumps(k, ensure_ascii=True) + ": ")
            _write(_value(lookup[k]), out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1:  # finite float64: one C-level format call
        out.append("[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj.tolist()) + "]")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        # a finite float64 array's rows need no conversion; a list's elements
        # are converted before the layout is chosen
        items = list(obj) if isinstance(obj, np.ndarray) else [_value(v) for v in obj]
        if not items:
            out.append("[]")
            return
        flat = all(isinstance(v, (int, float, bool)) or v is None for v in items)
        if flat:
            out.append("[")
            for i, v in enumerate(items):
                _write(v, out, indent)
                if i + 1 < len(items):
                    out.append(", ")
            out.append("]")
            return
        out.append("[\n")
        for i, v in enumerate(items):
            out.append(pad + "  ")
            _write(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Canonical JSON text (trailing newline included)."""
    out: list[str] = []
    _write(_value(obj), out, 0)
    out.append("\n")
    return "".join(out)
