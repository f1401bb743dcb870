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
coordinates) is normalised and checked once as a whole, and its outer axes are
laid out like nested lists.  Every other array, including one holding ``nan``
or ``inf``, is written through ``tolist()``, so it prints, or fails, exactly
as a nested list would.

The innermost rows of such an array take one of two routes, and both print
the bytes of ``%.17g``:

* An array of fewer than ``_VECTOR_MIN`` (1024) entries prints each row by one
  C-level ``%``-format call (:func:`_row_text`).  That call pays CPython's
  exact ``dtoa`` for every float, about 0.55 us each.
* A larger array prints in blocks of rows of about 8 k entries, whose 17
  digits and text are computed with numpy arithmetic (:func:`_exact_rows`),
  about 0.1-0.15 us a float.  Each entry is *certified*, its digits proven to
  be those of ``%.17g``, when it is 0 or lies in [1e-292, 10) in magnitude
  (the range the arithmetic is proven for and the text slots hold), when
  log10 gave its decade right, and when it lies farther than a proven bound
  from a rounding tie.  A row holding an entry that is not certified is
  printed by :func:`_row_text` instead, so an array of large numbers costs
  a few percent more than by ``%`` alone.

The vectorized route costs about 65 us per block however small, so it wins
from about 200 entries on orthogonal matrices; but zeros and ones print fast
by ``%``, and a 32 x 32 permutation matrix comes out about even, so arrays
under 1024 entries keep the ``%`` route.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math

import numpy as np

from .backends.base import Channel
from .diagram import SystemType

__all__ = ["format_float", "dumps_canonical"]

_VECTOR_MIN = 1024  # the fewest entries of an array printed by _exact_rows
_BLOCK = 8192  # entries per block of _exact_rows, which bounds its scratch arrays


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


def _row_text(row: np.ndarray) -> str:
    """``%.17g`` of each entry of a row of finite floats, joined by ", ", in
    one C-level format call."""
    return ", ".join(["%.17g"] * len(row)) % tuple(row.tolist())


@functools.cache
def _tables():
    """Lookup tables of :func:`_exact_rows`, built on its first call (about 1 ms)."""
    # 10**s for s = 0..308 as hi + lo, both correctly rounded from exact
    # integers, and hi's Veltkamp halves of at most 26 bits each, split at a
    # scale of 2**-600 so that the splitting constant cannot overflow
    exact = [1]
    for _ in range(308):
        exact.append(exact[-1] * 10)
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - int(h)) for v, h in zip(exact, hi.tolist())])
    scaled = hi * 2.0 ** -600
    c = scaled * 134217729.0  # 2**27 + 1
    hi_hi = (c - (c - scaled)) * 2.0 ** 600
    hi_lo = hi - hi_hi
    # Text is assembled in words whose pad bytes (0) are dropped at the end.
    # Heads, by sign, minus the decade e (0..292), leading digit and whether
    # digits follow it: the sign, "0.", "0.0", "0.00" or "0.000" for e = 1..4,
    # the leading digit, and for e = 0 or e > 4 a point if digits follow.
    prefixes = ["", "0.", "0.0", "0.00", "0.000"]
    heads = [("-" * sign + prefix + str(lead) + "." * (more and not prefix)).encode().ljust(8, b"\0")
             for sign in range(2) for prefix in prefixes for lead in range(10) for more in range(2)]
    heads = np.frombuffer(b"".join(heads), np.uint64).reshape(2, len(prefixes), 20)
    e = np.arange(293)
    heads = heads[:, np.where(e < len(prefixes), e, 0)].ravel()
    # Each 4-digit group of the fraction, with its trailing zeros padded (the
    # last nonzero group) and whole (an earlier one).
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy() + np.uint8(48)
    keep = digits != 48
    for j in (2, 1, 0):  # a digit stays when a nonzero digit follows it
        keep[:, j] |= keep[:, j + 1]
    groups = np.concatenate([digits * keep, digits]).view(np.uint32).ravel()
    # Tails: "e-05" .. "e-292" for e = 5..292, then ", " or a newline.
    suffixes = [b"e-%02d" % k if k >= len(prefixes) else b"" for k in range(293)]
    tails = [(suffix + sep).ljust(8, b"\0") for sep in [b", ", b"\n"] for suffix in suffixes]
    tails = np.frombuffer(b"".join(tails), np.uint64).reshape(2, 293)
    return hi, lo, hi_hi, hi_lo, heads, groups, tails


# The bound that certifies an entry: how far y_hi + y_lo, computed below, may
# lie from y = x * 10**s.  hi = fl(10**s) and lo = fl(10**s - hi), so
# |10**s - hi - lo| <= 2**-106 * 10**s.  Dekker's product gives y_hi + e =
# x * hi exactly; t = fl(x * lo) is within 2**-106 * y of x * lo; and y_lo =
# fl(e + t) adds at most 2**-53 * |e + t| <= 2**-105 * y.  So |y - (y_hi +
# y_lo)| < 2**-103 * y < 2**-46 for y < 2**57 (> 1e17), and 2**-40 leaves a
# factor of 64.  For s <= 22, 10**s is a double, lo is 0 and the sum is
# exact, so there the bound is 0.
_MARGIN = 2.0 ** -40


def _exact_rows(block: np.ndarray) -> list[str | None]:
    """:func:`_row_text` of each row of ``block``, a matrix of finite float64
    without ``-0.0``, computed with numpy arithmetic; None for a row holding
    an entry whose digits are not certified.

    An entry x is printed from m, x * 10**s rounded to 17 digits, where s =
    16 - floor(log10(|x|)).  It is certified when it is 0, or when that decade
    is in [-292, 0] (so 10**s, s in 16..308, is a double, and the point
    follows the first digit or a prefix) and x * 10**s, within the bound
    ``_MARGIN``, lies in [1e16, 1e17) (so log10 did not misjudge the decade)
    and farther than that bound from a rounding tie.
    """
    hi, lo, hi_hi, hi_lo, heads, groups, tails = _tables()
    n, width = block.shape
    x = block.ravel()
    ax = np.abs(x)
    decade = np.floor(np.log10(np.where(ax > 0, ax, 1.0)))  # 0 for a zero
    inside = (decade >= -292) & (decade <= 0)
    if not inside.reshape(n, width).all(axis=1).any():  # no row can be certified
        return [None] * n
    a = np.where(inside, ax, 0.0)
    s = (16 - np.where(inside, decade, 0)).astype(np.intp)
    # y = a * 10**s as y_hi + y_lo, by Dekker's exact product of a and hi
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    h1, h2 = hi_hi[s], hi_lo[s]
    y_hi = a * hi[s]
    y_lo = ((a_hi * h1 - y_hi) + a_hi * h2 + a_lo * h1) + a_lo * h2 + a * lo[s]
    step = np.rint(y_lo)
    frac = y_lo - step  # exact; in [-0.5, 0.5]
    m = y_hi.astype(np.int64) + step.astype(np.int64)
    margin = np.where(s <= 22, 0.0, _MARGIN)
    # the whole part of y is m, or m - 1 below a fraction of (about) zero
    ok = (inside & (np.abs(np.abs(frac) - 0.5) > margin) & (m < 10 ** 17)
          & (m - (frac < margin) >= 10 ** 16)) | (ax == 0)
    m = np.where(ok, m, 0)  # an entry not certified prints as 0 until its row is redone
    e = np.where(ok, s - 16, 0)  # minus the decimal exponent: 0..292

    # the leading digit and four 4-digit groups (numpy's division by a
    # constant is fast, its remainder is not)
    lead = m // 10 ** 16
    rest = m - lead * 10 ** 16
    g1 = rest // 10 ** 12
    rest1 = rest - g1 * 10 ** 12
    g2 = rest1 // 10 ** 8
    rest2 = rest1 - g2 * 10 ** 8
    g3 = rest2 // 10 ** 4
    g4 = rest2 - g3 * 10 ** 4
    # one slot of 32 bytes per entry: head, four groups, tail
    slots = np.empty((x.size, 4), np.uint64)
    words = slots.view(np.uint32)
    slots[:, 0] = heads[(((x < 0) * 293 + e) * 10 + lead) * 2 + (rest != 0)]
    words[:, 2] = groups[g1 + 10000 * (rest1 != 0)]
    words[:, 3] = groups[g2 + 10000 * (rest2 != 0)]
    words[:, 4] = groups[g3 + 10000 * (g4 != 0)]
    words[:, 5] = groups[g4]
    slots[:, 3] = tails[0, e]
    slots[width - 1::width, 3] = tails[1, e[width - 1::width]]  # a newline ends each row
    text = slots.tobytes().translate(None, b"\0").decode("ascii")
    texts: list[str | None] = []
    start = 0
    for row_ok in ok.reshape(n, width).all(axis=1).tolist():
        end = text.find("\n", start)
        texts.append(text[start:end] if row_ok else None)
        start = end + 1
    return texts


def _row_texts(rows: np.ndarray):
    """Yield the text of each row of a finite float64 matrix, in order."""
    n, width = rows.shape
    if rows.size < _VECTOR_MIN:
        for row in rows:
            yield _row_text(row)
    elif width > _BLOCK:  # one row per block would not bound the scratch arrays
        for row in rows:
            parts = [_exact_rows(row[None, i:i + _BLOCK])[0] for i in range(0, width, _BLOCK)]
            yield _row_text(row) if None in parts else ", ".join(parts)
    else:
        per_block = _BLOCK // width
        for r in range(0, n, per_block):
            block = rows[r:r + per_block]
            for i, text in enumerate(_exact_rows(block)):
                yield _row_text(block[i]) if text is None else text


def _lay_out(shape: tuple[int, ...], rows, out: list[str], indent: int) -> None:
    """Append an array of ``shape`` as nested lists, its innermost rows taken
    in order from the iterator ``rows``."""
    if len(shape) == 1:
        out += ("[", next(rows), "]")
        return
    if not shape[0]:
        out.append("[]")
        return
    pad = "  " * indent
    out.append("[\n")
    for i in range(shape[0]):
        out.append(pad + "  ")
        _lay_out(shape[1:], rows, out, indent + 1)
        out.append(",\n" if i + 1 < shape[0] else "\n")
    out.append(pad + "]")


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
    elif isinstance(obj, np.ndarray):  # finite float64, one or more dimensions
        rows = obj.reshape(math.prod(obj.shape[:-1]), obj.shape[-1])
        _lay_out(obj.shape, _row_texts(rows), out, indent)
    elif isinstance(obj, (list, tuple)):
        items = [_value(v) for v in obj]
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
