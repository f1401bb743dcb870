import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optlab.serialize import dumps_canonical, format_float, jsonable


def test_format_float_shortest_repr():
    assert format_float(0.5) == "0.5"
    assert format_float(1.0) == "1"
    assert format_float(1e-9) == "1.0000000000000001e-09"
    assert format_float(1 / 3) == "0.33333333333333331"


def test_format_float_negative_zero_normalized():
    assert format_float(-0.0) == "0"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_format_float_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        format_float(bad)


def test_complex_becomes_pair():
    assert jsonable(1 + 2j) == [1.0, 2.0]
    assert jsonable(np.complex128(3 - 4j)) == [3.0, -4.0]


def test_arrays_become_nested_lists():
    out = jsonable(np.arange(6, dtype=float).reshape(2, 3))
    assert out == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]


def test_zero_dimensional_arrays_become_scalars():
    assert jsonable(np.array(0.5)) == 0.5
    assert jsonable(np.array(1 - 2j)) == [1.0, -2.0]
    assert jsonable([np.array(3)]) == [3]
    assert dumps_canonical({"x": np.array(0.5)}) == '{\n  "x": 0.5\n}\n'


def test_keys_sorted_and_deterministic():
    a = dumps_canonical({"b": 1.0, "a": [1.0, 2.0], "c": {"z": 0.5, "y": 2j}})
    b = dumps_canonical({"c": {"y": 2j, "z": 0.5}, "a": [1.0, 2.0], "b": 1.0})
    assert a == b
    assert a.index('"a"') < a.index('"b"') < a.index('"c"')


def test_byte_identical_across_calls():
    report = {"matrix": np.eye(3) * (1 / 3), "gap": 1e-12, "word": "A*B"}
    assert dumps_canonical(report) == dumps_canonical(report)


def test_trailing_newline():
    assert dumps_canonical({}).endswith("\n")


# ---------------------------------------------------------------------------
# the array path against the per-element writer it replaced
# ---------------------------------------------------------------------------

def _oracle_write(obj, out: list[str], indent: int) -> None:
    """The recursive writer as it was before arrays got their own path."""
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
            _oracle_write(lookup[k], out, indent + 1)
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
                _oracle_write(v, out, indent)
                if i + 1 < len(obj):
                    out.append(", ")
            out.append("]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _oracle_write(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _oracle_dumps(obj) -> str:
    out: list[str] = []
    _oracle_write(jsonable(obj), out, 0)
    out.append("\n")
    return "".join(out)


def _outcome(dump, obj):
    """The text, or the type and message of what the writer raised."""
    try:
        return dump(obj)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


def _edges(dtype) -> list[float]:
    """Signed zero, the smallest subnormal and the extremes of ``dtype``."""
    info = np.finfo(dtype)
    tiny = float(info.smallest_subnormal)
    return [-0.0, 0.0, tiny, -tiny, float(info.smallest_normal), float(info.max),
            -float(info.max), float(info.eps)]


_VIEWS = {
    "as is": lambda a: a,
    "fortran": np.asfortranarray,
    "transposed": lambda a: a.T,
    "reversed": lambda a: a[::-1] if a.ndim else a,
    "strided": lambda a: a[..., ::2] if a.ndim else a,
}


@st.composite
def float_arrays(draw, min_dims=0):
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    width = 64 if dtype is np.float64 else 32
    elements = st.floats(allow_nan=False, allow_infinity=False, width=width) \
        | st.sampled_from(_edges(dtype))
    shape = draw(hnp.array_shapes(min_dims=min_dims, max_dims=3, min_side=0, max_side=4))
    base = draw(hnp.arrays(dtype, shape, elements=elements))
    return _VIEWS[draw(st.sampled_from(sorted(_VIEWS)))](base)


scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=3) \
    | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([5e-324, 1e308, -1e308])

reports = st.recursive(
    float_arrays() | scalars,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


@settings(deadline=None)
@given(reports)
def test_array_path_matches_the_per_element_writer(obj):
    assert _outcome(dumps_canonical, obj) == _outcome(_oracle_dumps, obj)


@settings(deadline=None)
@given(float_arrays(min_dims=1).filter(lambda a: a.size), st.data())
def test_non_finite_entries_raise_as_before(a, data):
    a = np.array(a)  # a writable copy that keeps the memory order
    for i in data.draw(st.lists(st.integers(0, a.size - 1), min_size=1, max_size=3)):
        a[np.unravel_index(i, a.shape)] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    report = {"b": [a, 1.0], "a": np.ones_like(a)}
    new = _outcome(dumps_canonical, report)
    assert new == _outcome(_oracle_dumps, report)
    assert new[0] is ValueError and "non-finite" in new[1]


def test_first_non_finite_is_found_in_row_major_order():
    a = np.asfortranarray([[1.0, np.inf], [np.nan, 2.0]])  # nan comes first in memory
    with pytest.raises(ValueError, match="non-finite float inf$"):
        dumps_canonical({"m": a})
