"""Canonical JSON: byte-identical output for identical inputs.

Floats print with ``%.17g``, the fixed 17-significant-digit form, which
round-trips every float64 (``repr`` would give the shortest form instead);
``-0.0`` prints as ``0`` and non-finite floats are refused.  Complex scalars
become two-element [re, im] arrays, arrays become row-major nested lists, and
object keys are sorted.  The writer is its own formatter rather than a
``json.dumps`` configuration because the float format must be pinned down
to the byte.

A report is walked once, into a ``%``-template (:class:`_Template`).  Each
float, a scalar or an entry of an array, becomes a ``%.17g`` slot and is
collected in slot order; all other text (keys and strings escaped by
``json``'s ASCII encoder, integers, ``null``, brackets, indentation) goes in
with its ``%`` doubled.  The walk ends with one numpy pass over the collected
floats, which turns ``-0.0`` into ``0.0`` and refuses the first non-finite
one, and one ``template % floats`` call, which prints them all.  When the walk
meets a value it cannot write, the floats met before it are checked first, so
the error raised is the one of the first bad value in walk order.

Each value is written by the writer of its exact type, found in one lookup
(``_WRITERS``).  A type is resolved on its first use by subclass tests, in
this order: numpy arrays, numpy floats and integers, complex numbers, a
``SystemType`` (its string), a ``Channel`` (its wire types and kernel), any
other dataclass (its fields, named and escaped once per class), ``None``,
booleans, integers, floats, strings, dicts, then lists and tuples.  Dict keys
are compared as strings, and each key's text is escaped once and kept
(:func:`_key`).  A list whose items all print as numbers, booleans or null takes
one line; any other list, and every dict, takes one line per item.  An array
that is a subclass, 0-d, or not real floating is written as its ``tolist()``.

A real floating array of one or more dimensions is laid out like nested
lists, and its entries take one of two routes, both printing the bytes of
``%.17g``:

* An array of fewer than ``_VECTOR_MIN`` (1024) entries, or one holding
  ``nan`` or ``inf``, puts one slot per entry in the template, where it pays
  CPython's exact ``dtoa``, about 0.55 us a float.
* A larger finite array prints in blocks of rows of about 8 k entries, whose
  17 digits and text are computed with numpy arithmetic (:func:`_exact_rows`),
  about 0.1-0.15 us a float.  Each entry is *certified*, its digits proven to
  be those of ``%.17g``, when it is 0 or lies in [1e-292, 10) in magnitude
  (the range the arithmetic is proven for and the text slots hold), when
  log10 gave its decade right, and when it lies farther than a proven bound
  from a rounding tie.  A row holding an entry that is not certified is
  printed by one ``%`` call of its own (:func:`_row_text`), so an array of
  large numbers costs a few percent more than by ``%`` alone.  The array's
  text is kept apart and joined in between the template's segments, each
  formatted by its own ``%`` call, so it is not copied through ``%`` again.

The vectorized route costs about 65 us per block however small, so it wins
from about 200 entries on orthogonal matrices; but zeros and ones print fast
by ``%``, and a 32 x 32 permutation matrix comes out about even, so arrays
under 1024 entries keep the ``%`` route.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from json.encoder import encode_basestring_ascii

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


def _row_text(row: np.ndarray) -> str:
    """``%.17g`` of each entry of a row of finite floats, joined by ", ", in
    one C-level format call; ``-0.0`` prints as ``0``."""
    return ", ".join(["%.17g"] * len(row)) % tuple((row + 0.0).tolist())


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
    (a zero of either sign prints as 0), computed with numpy arithmetic; None
    for a row holding an entry whose digits are not certified.

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
    """Yield the text of each row of a finite float64 matrix of at least
    ``_VECTOR_MIN`` entries, in order."""
    n, width = rows.shape
    if width > _BLOCK:  # one row per block would not bound the scratch arrays
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


class _Template:
    """A report as a ``%``-template: its text with ``%`` doubled and a
    ``%.17g`` slot per float (``parts``), the floats in slot order, and the
    text of each large array with the place it goes."""

    __slots__ = ("parts", "floats", "raws")

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.floats: list[float] = []
        self.raws: list[tuple[int, int, list[str]]] = []  # (len(parts), len(floats), text)

    def text(self) -> str:
        values = _values(self.floats)
        chunks: list[str] = []
        p = f = 0
        for p_end, f_end, raw in self.raws:
            chunks.append("".join(self.parts[p:p_end]) % values[f:f_end])
            chunks += raw
            p, f = p_end, f_end
        chunks.append("".join(self.parts[p:]) % values[f:])
        return "".join(chunks)


def _values(floats: list[float]) -> tuple[float, ...]:
    """``floats`` as Python floats, ``-0.0`` made ``0.0``; the first
    non-finite one raises as :func:`format_float` does."""
    if not floats:
        return ()
    a = np.array(floats, dtype=np.float64) + 0.0
    finite = np.isfinite(a)
    if not finite.all():
        format_float(floats[int(finite.argmin())])
    return tuple(a.tolist())


def _string(s: str) -> str:
    return encode_basestring_ascii(s).replace("%", "%%")


@functools.lru_cache(maxsize=4096)
def _key(key: str) -> str:
    """The text ``"key": `` of a dict key."""
    return _string(key) + ": "


def _members(keys, values, indent: int, t: _Template) -> None:
    """Append an object of the key texts ``keys`` and their ``values``."""
    parts, floats = t.parts, t.floats
    if not keys:
        parts.append("{}")
        return
    pad = "  " * indent
    sep = ",\n  " + pad
    parts.append("{\n  " + pad)
    for key, v in zip(keys, values):
        parts.append(key)
        cls = type(v)
        if cls is float:
            parts.append("%.17g")
            floats.append(v)
        elif cls is str:
            parts.append(_string(v))
        elif cls is int:
            parts.append(str(v))
        else:
            _WRITERS[cls](v, indent + 1, t)
        parts.append(sep)
    parts[-1] = "\n" + pad + "}"


def _dict(obj: dict, indent: int, t: _Template) -> None:
    if not all(type(k) is str for k in obj):
        obj = {str(k): v for k, v in obj.items()}  # of two keys that print alike, the later wins
    keys = sorted(obj)
    _members(list(map(_key, keys)), [obj[k] for k in keys], indent, t)


def _channel(obj: Channel, indent: int, t: _Template) -> None:
    _members([_key("input"), _key("kernel"), _key("output")],
             [obj.input_type, obj.kernel, obj.output_type], indent, t)


def _fields(cls: type):
    """The writer of a dataclass: its fields as an object."""
    names = sorted(f.name for f in dataclasses.fields(cls))
    keys = list(map(_key, names))

    def write(obj, indent: int, t: _Template) -> None:
        _members(keys, [getattr(obj, name) for name in names], indent, t)

    return write


def _list(obj: list | tuple, indent: int, t: _Template) -> None:
    parts = t.parts
    if not obj:
        parts.append("[]")
        return
    if all(type(v) is float for v in obj):
        parts.append("[" + ", ".join(["%.17g"] * len(obj)) + "]")
        t.floats += obj
        return
    if all(map(_is_scalar, obj)):
        parts.append("[")
        for v in obj:
            _WRITERS[type(v)](v, indent, t)
            parts.append(", ")
        parts[-1] = "]"
        return
    pad = "  " * indent
    sep = ",\n  " + pad
    parts.append("[\n  " + pad)
    for v in obj:
        _WRITERS[type(v)](v, indent + 1, t)
        parts.append(sep)
    parts[-1] = "\n" + pad + "]"


def _array(obj: np.ndarray, indent: int, t: _Template) -> None:
    if type(obj) is not np.ndarray or obj.dtype.kind != "f" or not obj.ndim:
        obj = obj.tolist()  # nested lists, or a 0-d array's scalar
        _WRITERS[type(obj)](obj, indent, t)
        return
    a = obj.astype(np.float64, copy=False)
    if a.size >= _VECTOR_MIN and np.isfinite(a).all():
        text: list[str] = []
        _lay_out(a.shape, _row_texts(a.reshape(-1, a.shape[-1])), text, indent)
        t.raws.append((len(t.parts), len(t.floats), text))
        return
    _lay_out(a.shape, itertools.repeat(", ".join(["%.17g"] * a.shape[-1])), t.parts, indent)
    t.floats += a.ravel().tolist()


def _null(obj, indent: int, t: _Template) -> None:
    t.parts.append("null")


def _bool(obj: bool, indent: int, t: _Template) -> None:
    t.parts.append("true" if obj else "false")


def _int(obj: int, indent: int, t: _Template) -> None:
    t.parts.append(str(obj))


def _float(obj: float, indent: int, t: _Template) -> None:
    t.parts.append("%.17g")
    t.floats.append(obj)


def _complex(obj: complex, indent: int, t: _Template) -> None:
    z = complex(obj)
    t.parts.append("[%.17g, %.17g]")
    t.floats += (z.real, z.imag)


def _str(obj: str, indent: int, t: _Template) -> None:
    t.parts.append(_string(obj))


def _system(obj: SystemType, indent: int, t: _Template) -> None:
    t.parts.append(_string(str(obj)))


def _refuse(obj, indent: int, t: _Template) -> None:
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


_SCALARS = (_null, _bool, _int, _float)


def _is_scalar(v) -> bool:
    """Whether ``v`` prints as a number, a boolean or null."""
    writer = _WRITERS[type(v)]
    return writer in _SCALARS or (writer is _array and not v.ndim and _is_scalar(v.tolist()))


def _resolve(cls: type):
    """The writer of ``cls``: that of the first of these bases it has."""
    for base, writer in [(np.ndarray, _array), (np.floating, _float), (np.integer, _int),
                         ((complex, np.complexfloating), _complex), (SystemType, _system),
                         (Channel, _channel)]:
        if issubclass(cls, base):
            return writer
    if dataclasses.is_dataclass(cls):
        return _fields(cls)
    for base, writer in [(type(None), _null), (bool, _bool), (int, _int), (float, _float),
                         (str, _str), (dict, _dict), ((list, tuple), _list)]:
        if issubclass(cls, base):
            return writer
    return _refuse


class _Writers(dict):
    """The writer of each type, resolved on its first use."""

    def __missing__(self, cls: type):
        writer = self[cls] = _resolve(cls)
        return writer


_WRITERS = _Writers()


def dumps_canonical(obj) -> str:
    """Canonical JSON text (trailing newline included)."""
    t = _Template()
    try:
        _WRITERS[type(obj)](obj, 0, t)
    except (TypeError, ValueError):  # an unwritable value, or an int too long for str
        _values(t.floats)  # a non-finite float met before it is the error instead
        raise
    t.parts.append("\n")
    return t.text()
