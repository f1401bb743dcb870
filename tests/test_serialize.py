import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optlab.backends.base import Channel, EffectVector, StateVector
from optlab.diagram import SystemType
from optlab import serialize
from optlab.serialize import dumps_canonical, format_float


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
    assert dumps_canonical(1 + 2j) == "[1, 2]\n"
    assert dumps_canonical(np.complex128(3 - 4j)) == "[3, -4]\n"


def test_arrays_become_nested_lists():
    want = "[\n  [0, 1, 2],\n  [3, 4, 5]\n]\n"
    assert dumps_canonical(np.arange(6, dtype=float).reshape(2, 3)) == want
    assert dumps_canonical(np.arange(6).reshape(2, 3)) == want


def test_zero_dimensional_arrays_become_scalars():
    assert dumps_canonical(np.array(0.5)) == "0.5\n"
    assert dumps_canonical(np.array(1 - 2j)) == "[1, -2]\n"
    assert dumps_canonical([np.array(3)]) == "[3]\n"
    assert dumps_canonical({"x": np.array(0.5)}) == '{\n  "x": 0.5\n}\n'


@dataclass
class _Inner:
    labels: tuple
    weight: float


@dataclass
class _Outer:
    inner: _Inner
    system: SystemType


def test_report_objects_print_as_their_fields():
    a, ab = SystemType.of("A"), SystemType.of("A", "B")
    report = {
        "system": ab,
        "channel": Channel(a, a, np.array([[1.0, 0.5j], [-0.0, 2 - 1j]])),
        "state": StateVector([0.5, -0.0, 0.25], a),
        "effect": EffectVector([1.0, 0.0, 1e-9], a),
        "outer": _Outer(_Inner(("x", "y"), 0.125), ab),
        "count": np.int64(7),
        "z": np.complex128(1 - 2j),
        "scalar": np.array(0.25),
        3: "three",
    }
    # the text the command line printed for this report before it was written in one walk
    assert dumps_canonical(report) == (
        '{\n  "3": "three",\n  "channel": {\n    "input": "A",\n    "kernel": [\n'
        '      [\n        [1, 0],\n        [0, 0.5]\n      ],\n'
        '      [\n        [0, 0],\n        [2, -1]\n      ]\n    ],\n    "output": "A"\n  },\n'
        '  "count": 7,\n  "effect": {\n    "coords": [1, 0, 1.0000000000000001e-09],\n'
        '    "system": "A"\n  },\n  "outer": {\n    "inner": {\n      "labels": [\n'
        '        "x",\n        "y"\n      ],\n      "weight": 0.125\n    },\n'
        '    "system": "A*B"\n  },\n  "scalar": 0.25,\n  "state": {\n'
        '    "coords": [0.5, 0, 0.25],\n    "system": "A"\n  },\n  "system": "A*B",\n'
        '  "z": [1, -2]\n}\n'
    )


def test_keys_sorted_and_deterministic():
    a = dumps_canonical({"b": 1.0, "a": [1.0, 2.0], "c": {"z": 0.5, "y": 2j}})
    b = dumps_canonical({"c": {"y": 2j, "z": 0.5}, "a": [1.0, 2.0], "b": 1.0})
    assert a == b
    assert a.index('"a"') < a.index('"b"') < a.index('"c"')
    # keys are compared as strings; of two that print alike, the later one wins
    assert dumps_canonical({1: "a", "1": "b", 0: "c"}) == '{\n  "0": "c",\n  "1": "b"\n}\n'


def test_byte_identical_across_calls():
    report = {"matrix": np.eye(3) * (1 / 3), "gap": 1e-12, "word": "A*B"}
    assert dumps_canonical(report) == dumps_canonical(report)


def test_trailing_newline():
    assert dumps_canonical({}).endswith("\n")


# ---------------------------------------------------------------------------
# the one-walk writer against the per-element fold and writer it replaced
# ---------------------------------------------------------------------------

def _oracle_fold(obj):
    """Fold numpy scalars/arrays and complex numbers into JSON-ready values,
    as a separate pass did before the writer converted values itself."""
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            return _oracle_fold(obj.tolist())
        return [_oracle_fold(row) for row in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, dict):
        return {str(k): _oracle_fold(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_oracle_fold(v) for v in obj]
    return obj


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
    _oracle_write(_oracle_fold(obj), out, 0)
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


# text a %-template could misread, JSON escapes and non-ASCII, among any text
_HAZARDS = ["%", "%%", "%s", "%.17g", '"', "\\", "\u00e9", "\u2028", "\U0001f600", "a"]
texts = st.text(max_size=3) | st.lists(st.sampled_from(_HAZARDS), max_size=3).map("".join)

scalars = st.none() | st.booleans() | st.integers() | texts \
    | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([5e-324, 1e308, -1e308])

finite = st.floats(allow_nan=False, allow_infinity=False)
numpy_values = (
    st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32)
    | finite.map(np.float64)
    | st.complex_numbers(allow_nan=False, allow_infinity=False)
    | st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128)
    | st.sampled_from([np.array(2), np.array(-0.0), np.array(1 - 2j)])
    | hnp.arrays(st.sampled_from([np.int64, np.complex128]), hnp.array_shapes(max_dims=2, max_side=3))
)


@dataclass(frozen=True)
class _Tagged:
    tag: object
    weight: float


systems = st.lists(st.sampled_from(["A", "B%s", "\u00e9"]), max_size=2).map(tuple).map(SystemType)
objects = (
    systems
    | st.builds(Channel, systems, systems, float_arrays(min_dims=1) | numpy_values)
    | st.builds(_Tagged, scalars | systems, st.floats())
)

reports = st.recursive(
    float_arrays() | scalars | numpy_values | objects,
    lambda kids: st.lists(kids, max_size=3) | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(texts | st.integers(0, 3), kids, max_size=3)
    | st.dictionaries(st.sampled_from([0, 1, "0", "1"]), kids, max_size=3),  # keys that print alike
    max_leaves=6,
)


def _plain(obj):
    """``obj`` with each ``SystemType`` made its string, each ``Channel`` a
    dict of its wire types and kernel and each other dataclass a dict of its
    fields, for the oracle."""
    if isinstance(obj, SystemType):
        return str(obj)
    if isinstance(obj, Channel):
        return {"input": str(obj.input_type), "output": str(obj.output_type), "kernel": obj.kernel}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_plain(v) for v in obj)
    return obj


@settings(deadline=None, max_examples=300)
@given(reports)
def test_array_path_matches_the_per_element_writer(obj):
    assert _outcome(dumps_canonical, obj) == _outcome(_oracle_dumps, _plain(obj))


class _Opaque:
    pass


@pytest.mark.parametrize("fault", [_Opaque(), np.True_, 10 ** 5000], ids=["object", "numpy-bool", "long-int"])
@pytest.mark.parametrize("non_finite", [
    math.nan, -math.inf, np.float32("nan"), complex(0, math.inf), np.array([[1.0], [np.nan]]),
    np.full(serialize._VECTOR_MIN, np.inf)], ids=["nan", "-inf", "float32-nan", "complex", "array", "large-array"])
@pytest.mark.parametrize("first", ["non-finite", "fault"])
def test_the_first_bad_value_in_walk_order_decides_the_error(fault, non_finite, first):
    leaves = [non_finite, fault] if first == "non-finite" else [fault, non_finite]
    for report in ([0.5, *leaves], {"z": leaves[1], "a": [-0.0, leaves[0]]}, [{"b": leaves[0]}, (leaves[1],)]):
        outcome = _outcome(dumps_canonical, report)
        assert outcome == _outcome(_oracle_dumps, report)
        assert outcome[1].startswith("cannot serialize non-finite float") == (first == "non-finite")


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


# ---------------------------------------------------------------------------
# arrays large enough for the vectorized route, against the per-element writer
# ---------------------------------------------------------------------------

def _adversarial() -> np.ndarray:
    """Values whose 17 digits are hard to get right: powers of ten and their
    float neighbours, every power of two down to the smallest subnormal,
    integers around 2**53, and signed zeros."""
    tens = [float(f"1e{k}") for k in range(-320, 309)]
    values = tens + [float(np.nextafter(t, 0)) for t in tens] + [float(np.nextafter(t, np.inf)) for t in tens]
    values += [math.ldexp(1.0, -k) for k in range(1075)]
    values += [float(k) for k in range(-50, 1001)] + [float(2**53 + k) for k in range(-2, 3)]
    values += [0.0, -0.0]
    return np.array(values)


_ADVERSARIAL = _adversarial()


def _mixed_values(rng: np.random.Generator, size: int, weights: list[int]) -> np.ndarray:
    """``size`` float64 drawn from five pools, in the proportions ``weights``:
    the adversarial list, any finite float, transfer-matrix-like entries,
    magnitudes in [10, 1e17) and beyond, and subnormals."""
    bits = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
    pools = [
        rng.choice(_ADVERSARIAL, size),
        np.where(np.isfinite(bits), bits, 0.5),
        rng.standard_normal(size) / rng.choice([1.0, 7.0, 1e3, 1e9], size),
        10.0 ** rng.uniform(1, 30, size),
        rng.integers(1, 2**52, size=size, dtype=np.int64).view(np.float64),
    ]
    p = np.array(weights, dtype=float) + 1e-3
    pick = rng.choice(len(pools), size=size, p=p / p.sum())
    values = np.choose(pick, pools)
    return np.where(rng.random(size) < 0.5, -values, values)


@st.composite
def wide_float_arrays(draw):
    """1-D, 2-D and 3-D float64 or float32 arrays of up to about 2500 entries,
    mixing ordinary and adversarial values, through every view in _VIEWS."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    shape = draw(st.sampled_from([(2500,), (1100,), (1024,), (50, 50), (32, 33), (48, 21), (3, 20, 30),
                                  (8, 16, 16), (2, 700), (700, 2)]))
    weights = draw(st.lists(st.integers(0, 4), min_size=5, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = _mixed_values(rng, math.prod(shape), weights)
    with np.errstate(over="ignore"):
        values = values.astype(dtype)
    values[~np.isfinite(values)] = 0.25
    return _VIEWS[draw(st.sampled_from(sorted(_VIEWS)))](values.reshape(shape))


@settings(deadline=None, max_examples=60)
@given(wide_float_arrays())
def test_wide_arrays_match_the_per_element_writer(a):
    report = {"a": a, "b": [a[..., :3], 1.5]}
    assert _outcome(dumps_canonical, report) == _outcome(_oracle_dumps, report)


@settings(deadline=None, max_examples=30)
@given(wide_float_arrays().filter(lambda a: a.size >= serialize._VECTOR_MIN), texts,
       st.lists(finite | st.sampled_from(_edges(np.float64)), max_size=3))
def test_large_arrays_between_template_segments_match_the_per_element_writer(a, text, numbers):
    """A large array's text is joined between two formatted template segments;
    the floats and ``%`` strings around it must land in their own places."""
    report = {text: [*numbers, a, "%s" + text], "%%": {"%.17g": a[..., :2], "x": 0.1}, "b": [a, -0.0, "%"]}
    assert _outcome(dumps_canonical, report) == _outcome(_oracle_dumps, report)


@pytest.mark.parametrize("shape", [(1023,), (1024,), (1025,), (31, 33), (32, 32), (41, 25), (3, 11, 31), (1, 5, 205)])
def test_arrays_at_the_size_threshold_match_the_per_element_writer(shape):
    rng = np.random.default_rng(sum(shape))
    a = _mixed_values(rng, math.prod(shape), [1, 1, 4, 1, 1]).reshape(shape)
    assert dumps_canonical(a) == _oracle_dumps(a)


def test_a_large_normal_matrix_matches_the_per_element_writer():
    a = np.random.default_rng(5).standard_normal((1024, 1024))
    assert dumps_canonical({"transfer": a}) == _oracle_dumps({"transfer": a})


def test_a_row_longer_than_a_block_matches_the_per_element_writer():
    a = _mixed_values(np.random.default_rng(9), serialize._BLOCK * 2 + 7, [1, 1, 4, 1, 1])
    assert dumps_canonical(a) == _oracle_dumps(a)
    a[serialize._BLOCK + 3] = 2.0 ** -25  # a tie in the second block sends the row back
    assert dumps_canonical(a) == _oracle_dumps(a)


def test_ordinary_entries_are_certified_and_hard_ones_are_sent_back():
    ordinary = np.random.default_rng(2).standard_normal((4, 300)) / 30
    ordinary[:, ::7] = 0.0
    ordinary[:, 1::11] = 1.0
    ordinary[:, 2::13] = -3e-200
    assert all(t == ", ".join("%.17g" % v for v in row) for t, row in zip(serialize._exact_rows(ordinary), ordinary))
    for hard in [2.0 ** -25,                  # a 17-digit tie
                 float(np.nextafter(1e-3, 0)),  # log10 misjudges the decade
                 1e-6,                          # just below 1e-6; x * 1e22 rounds up to 1e16
                 1e-300, 5e-324, 10.0, 1e17]:   # outside the range
        block = ordinary.copy()
        block[2, 5] = hard
        texts = serialize._exact_rows(block)
        assert texts[2] is None and None not in texts[:2] + texts[3:]
    assert serialize._exact_rows(ordinary + 12.5) == [None] * 4


def test_powers_of_ten_split_exactly_for_the_exact_product():
    hi, lo, hi_hi, hi_lo = serialize._tables()[:4]
    for s in range(309):
        assert hi_hi[s] + hi_lo[s] == hi[s]
        for half in (hi_hi[s], hi_lo[s]):  # at most 26 significant bits
            mantissa = math.frexp(abs(float(half)))[0]
            assert mantissa * 2**26 == int(mantissa * 2**26)
        assert hi[s] == float(10**s) and abs(10**s - int(hi[s]) - int(lo[s])) * 2**106 <= 10**s


def test_arrays_from_1024_entries_take_the_vectorized_route(monkeypatch):
    calls = []
    exact_rows = serialize._exact_rows
    monkeypatch.setattr(serialize, "_exact_rows", lambda block: calls.append(block.shape) or exact_rows(block))
    rng = np.random.default_rng(4)
    small, large = rng.standard_normal((31, 33)), rng.standard_normal((32, 32))
    assert dumps_canonical(small) == _oracle_dumps(small)
    assert calls == []
    assert dumps_canonical(large) == _oracle_dumps(large)
    assert len(calls) >= 1
