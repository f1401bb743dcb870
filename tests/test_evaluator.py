"""Circuit evaluation against hand-computed values and structural laws."""

from functools import reduce
from itertools import product
from operator import mul

import numpy as np
import pytest

from optlab import Channel, Identity, Swap, SystemType, evaluate, par, run_test_circuit, seq, singleton_test
from optlab.diagram import Diagram, OutcomeSpace, Par, PrimitiveBox, Seq, Test, UNIT, test_par as parallel_tests
from optlab.diagram import test_seq as chain_tests
from optlab.errors import OptlabError, TypeMismatchError, UnknownBoxError
from optlab.evaluator import evaluate_channel, trace_box
from fixture_sampler import FixtureSampler

A = SystemType.of("A")
B = SystemType.of("B")


def box(backend, sampler, name, win, wout):
    ch = sampler.channel(win, wout)
    return PrimitiveBox(name, win, wout), {name: ch}


def test_identity_transfer_is_identity(backend):
    t = evaluate(Identity(A), backend)
    np.testing.assert_allclose(t.matrix, np.eye(backend.state_dim(A)),
                               atol=1e-12)


def test_swap_is_its_own_inverse(backend):
    d = evaluate_channel(seq(Swap(A, B), Swap(B, A)), backend)
    np.testing.assert_allclose(d.kernel,
                               backend.kernel_identity(A * B), atol=1e-12)


def test_swap_moves_product_states(backend):
    s = FixtureSampler(backend, seed=2)
    sa, sb = s.state(A), s.state(B)
    joint = backend.kernel_par(backend.state_channel(backend.state_object(sa.coords, A), A),
                               backend.state_channel(backend.state_object(sb.coords, B), B))
    swapped = backend.kernel_swap(A, B) @ joint
    other = backend.kernel_par(backend.state_channel(backend.state_object(sb.coords, B), B),
                               backend.state_channel(backend.state_object(sa.coords, A), A))
    np.testing.assert_allclose(swapped, other, atol=1e-12)


def test_trace_box_discards(backend):
    s = FixtureSampler(backend, seed=4)
    st = s.state(A)
    d = seq(PrimitiveBox("prep", SystemType(()), A), trace_box(A))
    t = evaluate(d, backend, {"prep": backend.state_channel(
        backend.state_object(st.coords, A), A)})
    np.testing.assert_allclose(t.matrix, [[1.0]], atol=1e-10)


def test_sequential_composition_matches_matrix_product(backend):
    s = FixtureSampler(backend, seed=6)
    f, bf = box(backend, s, "f", A, B)
    g, bg = box(backend, s, "g", B, A)
    bindings = {**bf, **bg}
    t = evaluate(seq(f, g), backend, bindings)
    tf = evaluate(f, backend, bindings)
    tg = evaluate(g, backend, bindings)
    np.testing.assert_allclose(t.matrix, tg.matrix @ tf.matrix, atol=1e-12)


def test_interchange_law(backend):
    s = FixtureSampler(backend, seed=8)
    f1, b1 = box(backend, s, "f1", A, A)
    f2, b2 = box(backend, s, "f2", A, B)
    g1, b3 = box(backend, s, "g1", B, B)
    g2, b4 = box(backend, s, "g2", B, A)
    bindings = {**b1, **b2, **b3, **b4}
    lhs = evaluate(seq(par(f1, g1), par(f2, g2)), backend, bindings)
    rhs = evaluate(par(seq(f1, f2), seq(g1, g2)), backend, bindings)
    np.testing.assert_allclose(lhs.matrix, rhs.matrix, atol=1e-12)


def test_swap_naturality(backend):
    s = FixtureSampler(backend, seed=10)
    f, bf = box(backend, s, "f", A, B)
    g, bg = box(backend, s, "g", B, A)
    bindings = {**bf, **bg}
    lhs = evaluate(seq(par(f, g), Swap(B, A)), backend, bindings)
    rhs = evaluate(seq(Swap(A, B), par(g, f)), backend, bindings)
    np.testing.assert_allclose(lhs.matrix, rhs.matrix, atol=1e-12)


def test_unit_identity_laws(backend):
    s = FixtureSampler(backend, seed=12)
    f, bf = box(backend, s, "f", A, B)
    base = evaluate(f, backend, bf)
    left = evaluate(seq(Identity(A), f), backend, bf)
    right = evaluate(seq(f, Identity(B)), backend, bf)
    np.testing.assert_allclose(left.matrix, base.matrix, atol=1e-13)
    np.testing.assert_allclose(right.matrix, base.matrix, atol=1e-13)


def test_type_errors_surface(backend):
    s = FixtureSampler(backend, seed=14)
    f, bf = box(backend, s, "f", A, B)
    with pytest.raises(OptlabError):
        evaluate(seq(f, f), backend, bf)


def test_binding_must_match_declared_type(backend):
    s = FixtureSampler(backend, seed=16)
    f = PrimitiveBox("f", A, B)
    wrong = s.channel(A, A)
    with pytest.raises(OptlabError):
        evaluate(f, backend, {"f": wrong})


def test_unbound_box_is_unknown(backend):
    s = FixtureSampler(backend, seed=15)
    f, bf = box(backend, s, "f", A, A)
    with pytest.raises(UnknownBoxError, match="no box named 'g' declared on backend"):
        evaluate(seq(f, PrimitiveBox("g", A, A)), backend, bf)
    with pytest.raises(UnknownBoxError):
        evaluate(f, backend)


def test_closed_test_circuit_distribution(backend):
    s = FixtureSampler(backend, seed=18)
    for _ in range(5):
        t = s.closed_test_circuit()
        dist = run_test_circuit(t, backend, s.bindings)
        assert all(p >= -1e-12 for p in dist.probs.values())
        np.testing.assert_allclose(dist.total, 1.0, atol=1e-10)


def test_scalar_tests_factorize(backend):
    s = FixtureSampler(backend, seed=20)
    t1 = s.closed_test_circuit(max_branches=2)
    t2 = s.closed_test_circuit(max_branches=2)
    d1 = run_test_circuit(t1, backend, s.bindings)
    d2 = run_test_circuit(t2, backend, s.bindings)
    from optlab import test_par as parallel_tests

    joint = run_test_circuit(parallel_tests(t1, t2), backend, s.bindings)
    for la, pa in d1.probs.items():
        for lb, pb in d2.probs.items():
            assert joint.probs[f"({la},{lb})"] == pa * pb  # exact float product


def test_deterministic_circuit_normalization_check(backend):
    s = FixtureSampler(backend, seed=22)
    st = s.state(A)
    prep = backend.state_channel(backend.state_object(st.coords, A), A)
    d = seq(PrimitiveBox("prep", SystemType(()), A), trace_box(A))
    t = singleton_test(d)
    dist = run_test_circuit(t, backend, {"prep": prep})
    np.testing.assert_allclose(dist.total, 1.0, atol=1e-10)


def test_memoized_evaluation_is_consistent(backend):
    s = FixtureSampler(backend, seed=24)
    f, bf = box(backend, s, "f", A, A)
    d = seq(seq(f, f), seq(f, f))
    memo = {}
    c1 = evaluate_channel(d, backend, bf, memo=memo)
    c2 = evaluate_channel(d, backend, bf)
    np.testing.assert_allclose(c1.kernel, c2.kernel, atol=0)
    assert memo and all(isinstance(key, Diagram) for key in memo)  # the memo keys whole terms only


def test_raw_miswired_chains_are_type_errors(backend):
    s = FixtureSampler(backend, seed=25)
    f, bindings = box(backend, s, "f", A, B)
    g, bg = box(backend, s, "g", A, A)
    bindings.update(bg)
    bindings["p"] = backend.state_channel(s.preparation_branches(A, 1)[0], A)
    bindings["m0"], bindings["m1"] = s.observation_channels(A, 2)
    p, m0, m1 = PrimitiveBox("p", UNIT, A), PrimitiveBox("m0", A, UNIT), PrimitiveBox("m1", A, UNIT)
    meas = Test(OutcomeSpace(("0", "1")), (m0, m1))
    closed = [Test(OutcomeSpace(("0", "1")), (Seq((p, f, g, m0)), Seq((p, f, g, m1)))),
              chain_tests(singleton_test(p), singleton_test(Seq((f, g))), meas)]
    with pytest.raises(TypeMismatchError, match="^sequential wires disagree: B vs A$"):
        evaluate(Seq((f, g)), backend, bindings)
    for t in closed:
        with pytest.raises(TypeMismatchError, match="^sequential wires disagree: B vs A$"):
            run_test_circuit(t, backend, bindings)


# ---------------------------------------------------------------------------
# state-first evaluation of closed circuits
# ---------------------------------------------------------------------------


def _plain_channel(d, backend, bindings):
    """Reference: each chain folded from its input end, each Par in its
    written association, without a memo."""
    if isinstance(d, PrimitiveBox):
        return bindings[d.name]
    if isinstance(d, Identity):
        return Channel(d.system, d.system, backend.kernel_identity(d.system))
    if isinstance(d, Swap):
        return Channel(d.input_type, d.output_type, backend.kernel_swap(d.left, d.right))
    if isinstance(d, Seq):
        first = _plain_channel(d.parts[0], backend, bindings)
        for part in d.parts[1:]:
            second = _plain_channel(part, backend, bindings)
            first = Channel(first.input_type, second.output_type, second.kernel @ first.kernel)
        return first
    assert isinstance(d, Par)
    left = _plain_channel(d.parts[0], backend, bindings)
    for part in d.parts[1:]:
        right = _plain_channel(part, backend, bindings)
        left = Channel(left.input_type * right.input_type, left.output_type * right.output_type,
                       backend.kernel_par(left, right))
    return left


def _plain_distribution(t, backend, bindings):
    return {
        label: backend.prob(backend.transfer_of(_plain_channel(b, backend, bindings)).matrix[0, 0])
        for label, b in t.items()
    }


def _closed_ladder(backend, s, n=3, layers=4):
    """Two-branch preparations on n copies of A, a brick-wall ladder of random
    two-system channels, two-outcome measurements: ``(preps) ; ladder ; (meas)``
    nested as the workbench language nests it."""
    rows = []
    for layer in range(layers):
        row, i = [], 0
        while i < n:
            if i + 1 < n and i % 2 == layer % 2:
                name = f"g{layer}_{i}"
                s.bindings[name] = s.channel(A * A, A * A)
                row.append(PrimitiveBox(name, A * A, A * A))
                i += 2
            else:
                row.append(Identity(A))
                i += 1
        rows.append(reduce(par, row))
    preps, meas = [], []
    for i in range(n):
        boxes = []
        for k, obj in enumerate(s.preparation_branches(A, 2)):
            s.bindings[f"p{i}_{k}"] = backend.state_channel(obj, A)
            boxes.append(PrimitiveBox(f"p{i}_{k}", UNIT, A))
        preps.append(Test(OutcomeSpace(("0", "1")), tuple(boxes)))
        boxes = []
        for k, ch in enumerate(s.observation_channels(A, 2)):
            s.bindings[f"m{i}_{k}"] = ch
            boxes.append(PrimitiveBox(f"m{i}_{k}", A, UNIT))
        meas.append(Test(OutcomeSpace(("0", "1")), tuple(boxes)))
    ladder = singleton_test(reduce(seq, rows))
    return chain_tests(chain_tests(reduce(parallel_tests, preps), ladder),
                       reduce(parallel_tests, meas))


@pytest.mark.parametrize("circuits", ["sampled", "ladder"])
def test_state_first_matches_the_written_association(backend, circuits):
    s = FixtureSampler(backend, seed=26)
    if circuits == "sampled":
        tests = [s.closed_test_circuit(depth=2) for _ in range(4)]
    else:
        tests = [_closed_ladder(backend, s)]
    for t in tests:
        got = run_test_circuit(t, backend, s.bindings).probs
        want = _plain_distribution(t, backend, s.bindings)
        assert list(got) == list(want) == list(t.outcomes.labels)
        for label, p in want.items():
            assert abs(got[label] - p) <= 1e-12


def test_closed_ladder_multiplies_states_not_kernels(backend, monkeypatch):
    s = FixtureSampler(backend, seed=28)
    t = _closed_ladder(backend, s)
    ladder_word = t.branches[0].parts[1].input_type
    full = backend.kernel_identity(ladder_word).shape  # a kernel on the ladder's whole word
    shapes, layers = [], []

    kernel_par = backend.kernel_par

    def record(first, second):
        out = kernel_par(first, second)
        shapes.extend([first.kernel.shape, second.kernel.shape, out.shape])
        return out

    monkeypatch.setattr(backend, "kernel_par", record)
    apply_par = backend.apply_par
    monkeypatch.setattr(backend, "apply_par", lambda leaves, stack: (
        layers.append(stack.shape), apply_par(leaves, stack))[1])
    run_test_circuit(t, backend, s.bindings)
    assert shapes and full not in shapes
    # stacks of columns and rows only: a kernel_par of preparation tests stacks each branch pair
    assert max(shape[-2] * shape[-1] for shape in shapes) <= full[0]
    # the four ladder layers and the measurement each run once on the stack of 2^3 preparations
    assert layers == [(2 ** 3, full[0])] * 5


# ---------------------------------------------------------------------------
# layers applied leg by leg
# ---------------------------------------------------------------------------


def _leafy_layers(backend, s):
    """Layers with every kind of leaf: identities, block swaps, a box from a
    dim-2 to a dim-3 system, a nested chain, and states and effects."""
    def fresh(name, win, wout):
        s.bindings[name] = s.channel(win, wout)
        return PrimitiveBox(name, win, wout)

    s.bindings["st"] = backend.state_channel(s.preparation_branches(B, 1)[0], B)
    s.bindings["ef"] = s.observation_channels(A, 2)[0]
    state, effect = PrimitiveBox("st", UNIT, B), PrimitiveBox("ef", A, UNIT)
    chain = seq(fresh("c1", A, B), fresh("c2", B, A))
    return [
        reduce(par, [fresh("up", A, B), Identity(A), Swap(A, B)]),
        par(Swap(A * B, A), Identity(A)),
        reduce(par, [Identity(A), state, chain, effect]),
        par(fresh("down", B, A), par(effect, Swap(A, B))),
        par(fresh("wide", A * A, B), Identity(A)),
        par(effect, state),
    ]


def _plain_leaves(layer, backend, bindings):
    """Reference: a layer's leaves in wire order, nested ``Par`` parts opened,
    identities and swaps kept as terms and every other part a plain channel."""
    if isinstance(layer, Par):
        return [leaf for part in layer.parts for leaf in _plain_leaves(part, backend, bindings)]
    if isinstance(layer, (Identity, Swap)):
        return [layer]
    return [_plain_channel(layer, backend, bindings)]


def test_leg_wise_layers_match_a_dense_fold(backend):
    s = FixtureSampler(backend, seed=34)
    rng = np.random.default_rng(0)
    dtype = backend.kernel_identity(A).dtype
    for layer in _leafy_layers(backend, s):
        kernel = _plain_channel(layer, backend, s.bindings).kernel
        stack = rng.normal(size=(3, kernel.shape[1])).astype(dtype)
        if dtype.kind == "c":
            stack = stack + 1j * rng.normal(size=stack.shape)
        got = backend.apply_par(_plain_leaves(layer, backend, s.bindings), stack)
        np.testing.assert_allclose(got, stack @ kernel.T, rtol=0, atol=1e-12)

        # in a chain, after an open and after a closed first part
        word = layer.input_type
        s.bindings["open"] = s.channel(A, word)
        s.bindings["closed"] = backend.state_channel(s.preparation_branches(word, 1)[0], word)
        dense = Channel(word, layer.output_type, kernel)
        for first in (PrimitiveBox("open", A, word), PrimitiveBox("closed", UNIT, word)):
            got = evaluate_channel(seq(first, layer), backend, s.bindings).kernel
            want = dense.kernel @ s.bindings[first.name].kernel
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_nested_layers_run_as_their_flat_form(backend):
    s = FixtureSampler(backend, seed=38)
    s.bindings["f"] = s.channel(A, A)
    f = PrimitiveBox("f", A, A)
    word = SystemType.of(*"AAAA")
    s.bindings["open"] = s.channel(A, word)
    s.bindings["prep"] = backend.state_channel(s.preparation_branches(word, 1)[0], word)
    i = Identity(A)
    pairs = [(par(f, par(f, par(f, f))), par(f, f, f, f)), (par(f, par(f, f), f), par(f, f, f, f)),
             (par(f, i, par(f, f)), par(f, i, f, f))]
    for nested, flat in pairs:
        assert any(isinstance(part, Par) for part in nested.parts)
        for head in (PrimitiveBox("open", A, word), PrimitiveBox("prep", UNIT, word)):
            got = evaluate_channel(seq(head, nested, nested), backend, s.bindings).kernel
            want = evaluate_channel(seq(head, flat, flat), backend, s.bindings).kernel
            assert np.array_equal(got, want)


def test_chain_identities_and_swaps_build_no_kernel(backend, monkeypatch):
    s = FixtureSampler(backend, seed=40)
    s.bindings["prep"] = backend.state_channel(s.preparation_branches(A * B, 1)[0], A * B)
    s.bindings["m0"], s.bindings["m1"] = s.observation_channels(B * A, 2)
    chain = seq(PrimitiveBox("prep", UNIT, A * B), Swap(A, B), Identity(B * A))
    closed = chain_tests(singleton_test(chain), Test(OutcomeSpace(("0", "1")), (
        PrimitiveBox("m0", B * A, UNIT), PrimitiveBox("m1", B * A, UNIT))))
    want = _plain_channel(chain, backend, s.bindings).kernel
    want_probs = _plain_distribution(closed, backend, s.bindings)

    def refuse(*args):
        raise AssertionError("a chain's identity or swap built a kernel")
    monkeypatch.setattr(backend, "kernel_swap", refuse)
    monkeypatch.setattr(backend, "kernel_identity", refuse)
    assert np.array_equal(evaluate_channel(chain, backend, s.bindings).kernel, want)
    assert run_test_circuit(closed, backend, s.bindings).probs == want_probs


def _uneven_closed_test(backend, s):
    """Preparation, random middle, observation, where every other preparation
    branch passes through one more channel first: branches of two lengths."""
    win, wout = A * B, B
    preps = []
    for i, obj in enumerate(s.preparation_branches(win, 4)):
        s.bindings[f"u{i}"] = backend.state_channel(obj, win)
        prep = PrimitiveBox(f"u{i}", UNIT, win)
        if i % 2:
            s.bindings[f"v{i}"] = s.channel(win, win)
            prep = seq(prep, PrimitiveBox(f"v{i}", win, win))
        preps.append(prep)
    meas = []
    for k, ch in enumerate(s.observation_channels(wout, 3)):
        s.bindings[f"w{k}"] = ch
        meas.append(PrimitiveBox(f"w{k}", wout, UNIT))
    return chain_tests(Test(OutcomeSpace(tuple("abcd")), tuple(preps)),
                       singleton_test(s.diagram(win, wout, depth=3)),
                       Test(OutcomeSpace(tuple("xyz")), tuple(meas)))


def _coarse_closed_test(backend, s):
    """A complete test that is not a product in label order: two preparation
    branches are read out by a two-outcome measurement, in crossed order,
    and the third is only discarded."""
    win, wout = A, A * B
    q = []
    for i, obj in enumerate(s.preparation_branches(win, 3)):
        s.bindings[f"q{i}"] = backend.state_channel(obj, win)
        q.append(PrimitiveBox(f"q{i}", UNIT, win))
    s.bindings["r0"], s.bindings["r1"] = s.observation_channels(wout, 2)
    r0, r1 = PrimitiveBox("r0", wout, UNIT), PrimitiveBox("r1", wout, UNIT)
    m = s.diagram(win, wout, depth=3)
    branches = (seq(q[0], m, r0), seq(q[1], m, r1), seq(q[1], m, r0), seq(q[0], m, r1),
                seq(q[2], m, trace_box(wout)))
    return Test(OutcomeSpace(("00", "11", "10", "01", "2")), branches)


def test_lockstep_branches_match_each_branch_alone(backend):
    s = FixtureSampler(backend, seed=36)
    tests = [_uneven_closed_test(backend, s) for _ in range(6)] + [_closed_ladder(backend, s, n=4)]
    assert all(len({len(b.parts) for b in t.branches}) == 2 for t in tests[:-1])
    tests += [_coarse_closed_test(backend, s) for _ in range(4)]
    for t in tests:
        got = run_test_circuit(t, backend, s.bindings).probs
        assert list(got) == list(t.outcomes.labels)
        for label, branch in t.items():
            want = backend.transfer_of(evaluate_channel(branch, backend, s.bindings)).matrix[0, 0]
            assert got[label] == want


# ---------------------------------------------------------------------------
# composite tests against their per-outcome expansion
# ---------------------------------------------------------------------------


def reference_product(kind, tests):
    """The per-outcome expansion of a composite test, as a reference: one
    ``kind`` term per combination of branches, first test major, labels
    paired from the left."""
    if len(tests) == 1:
        return tests[0]
    branches = tuple(kind(parts) for parts in product(*(t.branches for t in tests)))
    return Test(reduce(OutcomeSpace.product, (t.outcomes for t in tests)), branches)


def reference_expansion(t):
    """``t`` with every composite expanded by :func:`reference_product`."""
    return reference_product(t.kind, [reference_expansion(p) for p in t.parts]) if t.parts else t


def _composed(kind, *pairs):
    """A composite test and its reference expansion, from such pairs."""
    tests, references = zip(*pairs)
    return (chain_tests if kind is Seq else parallel_tests)(*tests), reference_product(kind, references)


def _given(s, win, wout, channels):
    """A test given by its branches, one fresh box per channel, as a pair."""
    boxes = []
    for ch in channels:
        name = f"t{len(s.bindings)}"
        s.bindings[name] = ch
        boxes.append(PrimitiveBox(name, win, wout))
    t = Test(OutcomeSpace(tuple(str(k) for k in range(len(boxes)))), tuple(boxes))
    return t, t


def _random_column(backend, s):
    """Preparations, a middle and measurements on one or two systems.  Each
    end is one test on the whole word or a ``test_par`` of one per system;
    the middle is a deterministic circuit, an instrument, instruments side
    by side, or two instruments in sequence."""
    rng = s.rng
    words = [SystemType.of(label) for label in rng.choice(["A", "B"], size=int(rng.integers(1, 3)))]
    word = reduce(mul, words)

    def k():
        return int(rng.integers(1, 3))

    def prep(w):
        return _given(s, UNIT, w, [backend.state_channel(o, w) for o in s.preparation_branches(w, k())])

    def meas(w):
        return _given(s, w, UNIT, s.observation_channels(w, k()))

    def instrument(w):
        return _given(s, w, w, s.instrument(w, w, k()))

    split = rng.uniform(size=2) < 0.5
    middle = [lambda: (singleton_test(s.diagram(word, word, depth=2)),) * 2,
              lambda: instrument(word),
              lambda: _composed(Par, *map(instrument, words)),
              lambda: _composed(Seq, instrument(word), instrument(word))][int(rng.integers(4))]()
    return _composed(Seq, _composed(Par, *map(prep, words)) if split[0] else prep(word), middle,
                     _composed(Par, *map(meas, words)) if split[1] else meas(word))


def _random_closed(backend, s, depth=2):
    """A random closed test tree and its reference expansion: a column, or
    closed trees side by side (nested too) or in sequence."""
    pick = int(s.rng.integers(4)) if depth else 0
    if pick == 0:
        return _random_column(backend, s)
    parts = [_random_closed(backend, s, depth - 1) for _ in range(2)]
    if pick == 3:
        return _composed(Par, parts[0], _composed(Par, parts[1], _random_column(backend, s)))
    return _composed(Par if pick == 1 else Seq, *parts)


def _matches_expansion(t, reference, backend, bindings):
    """``run_test_circuit`` on ``t`` gives the reference's labels, in order,
    and each expanded branch's probability within 1e-12; ``t``'s branches
    are the expanded terms."""
    got = run_test_circuit(t, backend, bindings).probs
    assert list(got) == list(t.outcomes.labels) == list(reference.outcomes.labels)
    assert len(t.branches) == len(reference.branches)
    for i, (label, branch) in enumerate(reference.items()):
        assert t.branches[i] == branch
        want = backend.transfer_of(evaluate_channel(branch, backend, bindings)).matrix[0, 0]
        assert abs(got[label] - want) <= 1e-12
    assert list(t.branches) == list(reference.branches)


def test_random_composite_tests_match_their_expansion(backend):
    s = FixtureSampler(backend, seed=42)
    checked = 0
    while checked < 12:
        t, reference = _random_closed(backend, s)
        if len(reference.outcomes) <= 128:  # each expanded branch is evaluated alone
            _matches_expansion(t, reference, backend, s.bindings)
            checked += 1


def test_sampled_and_uneven_tests_match_their_expansion(backend):
    s = FixtureSampler(backend, seed=44)
    tests = [s.closed_test_circuit(depth=2) for _ in range(6)]
    tests += [_uneven_closed_test(backend, s) for _ in range(2)] + [_coarse_closed_test(backend, s)]
    tests += [parallel_tests(_uneven_closed_test(backend, s), _coarse_closed_test(backend, s))]
    assert any(t.kind is Par for t in tests[:6])
    for t in tests:
        _matches_expansion(t, reference_expansion(t), backend, s.bindings)


def test_a_product_of_twelve_tests_builds_no_branch_for_its_length(monkeypatch):
    coin = Test(OutcomeSpace(("h", "t")), (PrimitiveBox("h", A, UNIT), PrimitiveBox("t", A, UNIT)))
    reference = reference_product(Par, [coin] * 12)

    def refuse(self):
        raise AssertionError("a branch was built")
    monkeypatch.setattr(Par, "__post_init__", refuse)
    joint = parallel_tests(*[coin] * 12)
    assert len(joint.branches) == len(joint.outcomes) == 2 ** 12
    assert joint.outcomes == reference.outcomes
    monkeypatch.undo()
    for i in (0, 1, 7, 2 ** 11, 2 ** 12 - 1, -1):
        assert joint.branches[i] == reference.branches[i]
    assert list(joint.branches) == list(reference.branches)
    with pytest.raises(IndexError):
        joint.branches[2 ** 12]


# ---------------------------------------------------------------------------
# long chains
# ---------------------------------------------------------------------------


def _fold(channels, backend):
    """Reference: a plain left fold of kernel products."""
    acc = channels[0]
    for ch in channels[1:]:
        acc = Channel(acc.input_type, ch.output_type, ch.kernel @ acc.kernel)
    return acc


def test_long_chains_match_a_left_fold(backend):
    s = FixtureSampler(backend, seed=30)
    for i in range(3):
        s.bindings[f"f{i}"] = s.channel(A, A)
    s.bindings["prep"] = backend.state_channel(s.preparation_branches(A, 1)[0], A)
    steps = [PrimitiveBox(f"f{i % 3}", A, A) for i in range(10_000)]
    got = evaluate_channel(seq(*steps), backend, s.bindings)
    want = _fold([s.bindings[b.name] for b in steps], backend)
    np.testing.assert_allclose(got.kernel, want.kernel, rtol=0, atol=1e-12)

    meas = Test(OutcomeSpace(("0", "1")), (PrimitiveBox("m0", A, UNIT), PrimitiveBox("m1", A, UNIT)))
    s.bindings["m0"], s.bindings["m1"] = s.observation_channels(A, 2)
    closed = chain_tests(singleton_test(seq(PrimitiveBox("prep", UNIT, A), *steps)), meas)
    got = run_test_circuit(closed, backend, s.bindings)
    for label, m in zip(("0", "1"), ("m0", "m1")):
        want = _fold([s.bindings[n] for n in ["prep", *(b.name for b in steps), m]], backend)
        assert abs(got[label] - backend.prob(backend.transfer_of(want).matrix[0, 0])) <= 1e-12


def test_long_par_spines_keep_their_association(backend):
    s = FixtureSampler(backend, seed=32)
    s.bindings["p"] = backend.state_channel(s.preparation_branches(A, 1)[0], A)
    s.bindings["e"] = s.observation_channels(A, 1)[0]
    scalar = seq(PrimitiveBox("p", UNIT, A), PrimitiveBox("e", A, UNIT))
    wide = reduce(par, [scalar] * 1200)
    one = evaluate_channel(scalar, backend, s.bindings)
    want = one
    for _ in range(1199):
        want = backend.par(want, one)
    np.testing.assert_array_equal(evaluate_channel(wide, backend, s.bindings).kernel, want.kernel)

    for name in "abc":
        s.bindings[name] = s.channel(A, A)
    a, b, c = (PrimitiveBox(name, A, A) for name in "abc")
    ka, kb, kc = (s.bindings[name] for name in "abc")
    np.testing.assert_array_equal(evaluate_channel(par(a, par(b, c)), backend, s.bindings).kernel,
                                  backend.par(ka, backend.par(kb, kc)).kernel)
    np.testing.assert_array_equal(evaluate_channel(par(par(a, b), c), backend, s.bindings).kernel,
                                  backend.par(backend.par(ka, kb), kc).kernel)
