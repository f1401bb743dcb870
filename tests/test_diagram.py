import time
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optlab import get_backend
from optlab.diagram import Identity, OutcomeSpace, Par, PrimitiveBox, Seq, Swap, SystemType, UNIT, par, seq, singleton_test
from optlab.diagram import Test as OutcomeTest
from optlab.diagram import test_par as parallel_tests
from optlab.diagram import test_seq as chain_tests
from optlab.errors import TypeMismatchError
from fixture_sampler import FixtureSampler

A = SystemType.of("A")
B = SystemType.of("B")
C = SystemType.of("C")

words = st.lists(st.sampled_from(["A", "B", "C"]), max_size=4).map(
    lambda ls: SystemType(tuple(ls))
)


def test_system_words_concatenate():
    assert (A * B).word == ("A", "B")
    assert str(A * B * C) == "A*B*C"
    assert str(UNIT) == "I"
    assert UNIT.is_unit and not A.is_unit


@given(words, words, words)
def test_system_concat_monoid(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert UNIT * x == x
    assert x * UNIT == x


def test_seq_checks_interfaces():
    f = PrimitiveBox("f", A, B)
    g = PrimitiveBox("g", B, C)
    wired = seq(f, g)
    assert wired.input_type == A and wired.output_type == C
    with pytest.raises(TypeMismatchError):
        seq(g, f)


def test_par_concatenates_interfaces():
    f = PrimitiveBox("f", A, B)
    g = PrimitiveBox("g", C, UNIT)
    side = par(f, g)
    assert side.input_type == A * C
    assert side.output_type == B


def test_operator_sugar_matches_functions():
    f = PrimitiveBox("f", A, B)
    g = PrimitiveBox("g", B, A)
    assert (f >> g).input_type == A
    assert (f @ g).output_type == B * A


def test_identity_and_swap_types():
    assert Identity(A * B).output_type == A * B
    s = Swap(A, B)
    assert s.input_type == A * B and s.output_type == B * A


def test_outcome_space_rejects_duplicates():
    with pytest.raises(Exception):
        OutcomeSpace(("x", "x"))
    with pytest.raises(Exception):
        OutcomeSpace(())


def test_outcome_product_drops_the_unit_label():
    coin = OutcomeSpace(("h", "t"))
    assert coin.product(OutcomeSpace(("",))).labels == ("h", "t")
    assert OutcomeSpace(("",)).product(coin).labels == ("h", "t")
    assert coin.product(coin).labels == ("(h,h)", "(h,t)", "(t,h)", "(t,t)")


def test_test_seq_pairs_branches_first_major():
    prep = OutcomeTest(OutcomeSpace(("p", "q")),
                (PrimitiveBox("sp", UNIT, A), PrimitiveBox("sq", UNIT, A)))
    meas = OutcomeTest(OutcomeSpace(("0", "1")),
                (PrimitiveBox("e0", A, UNIT), PrimitiveBox("e1", A, UNIT)))
    chained = chain_tests(prep, meas)
    assert chained.outcomes.labels == ("(p,0)", "(p,1)", "(q,0)", "(q,1)")
    assert len(chained.branches) == 4


def test_test_seq_checks_interfaces():
    prep = OutcomeTest(OutcomeSpace(("p",)), (PrimitiveBox("s", UNIT, A),))
    meas_b = OutcomeTest(OutcomeSpace(("0",)), (PrimitiveBox("e", B, UNIT),))
    with pytest.raises(TypeMismatchError):
        chain_tests(prep, meas_b)


def test_singleton_lift_keeps_branch():
    f = PrimitiveBox("f", A, B)
    t = singleton_test(f)
    assert len(t.branches) == 1
    assert t.branches[0] is f
    assert t.outcomes.is_singleton_unit


def test_test_par_types():
    ta = OutcomeTest(OutcomeSpace(("x", "y")),
              (PrimitiveBox("f", A, A), PrimitiveBox("g", A, A)))
    tb = singleton_test(PrimitiveBox("h", B, B))
    joint = parallel_tests(ta, tb)
    assert joint.outcomes.labels == ("x", "y")
    assert joint.branches[0].input_type == A * B


def test_test_mapping_interface():
    t = OutcomeTest(OutcomeSpace(("u", "d")),
             (PrimitiveBox("su", UNIT, A), PrimitiveBox("sd", UNIT, A)))
    assert t["u"].name == "su"
    assert [label for label, _ in t.items()] == ["u", "d"]


# ---------------------------------------------------------------------------
# stored wire types and hashes
# ---------------------------------------------------------------------------

declared_words = st.lists(st.sampled_from(["A", "B"]), max_size=2).map(
    lambda ls: SystemType(tuple(ls))
)


def _subterms(d):
    yield d
    if isinstance(d, (Seq, Par)):
        for part in d.parts:
            yield from _subterms(part)


def _recomputed_types(d):
    """Wire types by recursion over the term, ignoring the stored ones."""
    if isinstance(d, Seq):
        return _recomputed_types(d.parts[0])[0], _recomputed_types(d.parts[-1])[1]
    if isinstance(d, Par):
        (i, o), *rest = map(_recomputed_types, d.parts)
        for ri, ro in rest:
            i, o = i * ri, o * ro
        return i, o
    return d.input_type, d.output_type


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["quantum", "quantum-real", "classical"]),
       st.integers(0, 2**32 - 1), declared_words, declared_words)
def test_terms_built_twice_are_equal_and_hash_equal(theory, seed, win, wout):
    backend = get_backend(theory, {"A": 2, "B": 3})
    first = FixtureSampler(backend, seed=seed).diagram(win, wout)
    second = FixtureSampler(backend, seed=seed).diagram(win, wout)
    assert first == second and hash(first) == hash(second)
    assert (first.input_type, first.output_type) == (win, wout)
    for term in _subterms(first):
        assert (term.input_type, term.output_type) == _recomputed_types(term)


def test_hashing_a_deep_chain_does_not_recurse():
    f = PrimitiveBox("f", A, A)
    chain = f
    for _ in range(10_000):
        chain = Seq((chain, f))
    assert {chain: "deep"}[chain] == "deep"
    assert (chain.input_type, chain.output_type) == (A, A)


def test_chains_are_equal_up_to_bracketing():
    f, g = PrimitiveBox("f", A, A), PrimitiveBox("g", A, A)
    steps = [f, g] * 5_000
    flat = seq(*steps)
    appended = steps[0]
    for step in steps[1:]:
        appended = appended >> step
    assert flat == appended and hash(flat) == hash(appended)
    assert flat.parts == tuple(steps)
    short = steps[:1_000]
    prepended = short[-1]
    for step in reversed(short[:-1]):
        prepended = seq(step, prepended)
    assert prepended == seq(*short) and hash(prepended) == hash(seq(*short))
    assert str(seq(f, seq(g, f))) == "(f ; g ; f)"
    assert seq(f) is f


def test_seq_reports_the_mismatched_neighbours():
    f, g = PrimitiveBox("f", A, A), PrimitiveBox("g", B, B)
    with pytest.raises(TypeMismatchError, match="of f into input B of g"):
        seq(f, f, g)


def test_wide_par_spines_compare_without_recursion():
    f, g = PrimitiveBox("f", A, A), PrimitiveBox("g", A, A)
    wide = [f] * 1_200
    assert reduce(par, wide) == reduce(par, wide)
    assert reduce(par, wide) != reduce(par, [g] + wide[1:])
    assert reduce(par, wide) != reduce(par, wide[:-1] + [g])
    assert par(f, par(f, f)) != par(par(f, f), f) and par(f, f) != f
    assert par(par(f, g), f) == par(f, g, f) and hash(par(par(f, g), f)) == hash(par(f, g, f))
    assert par(par(f, g), f).parts == par(f, g, f).parts == (f, g, f)
    assert par(f, par(g, f)) != par(f, g, f) and par(f, par(g, f)).parts == (f, par(g, f))
    assert str(par(f, g, f)) == "(f * g * f)" and str(par(f, par(g, f))) == "(f * (g * f))"
    assert par(f) is f


def test_long_par_spines_build_without_rechecking_labels(monkeypatch):
    f = PrimitiveBox("f", A, A)
    checks = []
    post_init = SystemType.__post_init__
    monkeypatch.setattr(SystemType, "__post_init__", lambda w: checks.append(w) or post_init(w))
    spine = reduce(par, [f] * 4_800)
    assert checks == [] and spine.input_type == SystemType(("A",) * 4_800)
    monkeypatch.undo()
    # on a 2-vCPU machine: 1 to 1.6 s while each concatenation re-checked every label, 0.35 s without
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        reduce(par, [f] * 4_800)
        timings.append(time.perf_counter() - start)
    assert min(timings) < 0.6
    # the fold drops each spliced head, so it never holds more than one word per side
    tracemalloc.start()
    spine = reduce(par, [f] * 4_800)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8e6  # 186 MB while every binary node stored its whole word
    assert par(*[f] * 4_800) == spine and hash(par(*[f] * 4_800)) == hash(spine)
