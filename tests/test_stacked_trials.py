"""Stacked sampled audits against the per-trial loops they replaced.

``Sampler.random_observation_tests``, ``Sampler.random_states``,
``check_causality`` and ``purify_states`` work out many trials as stacks.
The references below are the per-trial loops and primitives they replaced,
kept verbatim (``random_povm``, ``random_state``, ``sorted_eigh``,
``extremal_decomposition``, ``purification`` and the partial trace, one
trial at a time), so every comparison here is bit for bit.  A matrix
theory's transfer matrices and state objects come from one-item calls of
``transfer_matrices`` and ``state_object``.
"""

import numpy as np
import pytest

from optlab import SystemType, get_backend, linalg
from optlab.audit import check_causality, purify_state, purify_states
from optlab.backends.base import Channel, EffectVector, StateVector
from optlab.diagram import UNIT
from optlab.errors import BackendLacksPurificationError, CausalityViolationError, TypeMismatchError
from optlab.sampling import Sampler

SYSTEMS = {"A": 2, "B": 3, "C": 2}
A, B = SystemType.of("A"), SystemType.of("B")
SEEDS = range(10)
TRIALS = (1, 7, 80)


@pytest.fixture(scope="module", params=("quantum", "quantum-real", "classical"))
def theory(request):
    return get_backend(request.param, SYSTEMS)


# -- the per-trial references ------------------------------------------------


def reference_word(sampler, max_len):
    labels = sorted(sampler.backend.systems)
    for _ in range(20):
        n = int(sampler.rng.integers(0, max_len + 1))
        w = SystemType(tuple(labels[int(sampler.rng.integers(len(labels)))] for _ in range(n)))
        if sampler.backend.hilbert_dim(w) <= Sampler.MAX_CARRIER:
            return w
    return SystemType((min(labels, key=sampler.backend.primitive_dim),))


def reference_povm(backend, rng, word, k):
    d = backend.hilbert_dim(word)
    if backend.name == "classical":
        return list(np.stack([backend.simplex_weights(rng, k) for _ in range(d)], axis=1))
    raw = []
    for _ in range(k):
        g = backend.gaussian(rng, d, d)
        raw.append(g @ g.conj().T)
    vals, vecs = np.linalg.eigh(sum(raw))
    corr = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    return [corr @ e @ corr.conj().T for e in raw]


def reference_random_observation_tests(backend, seed, trials):
    """The audit's loop: a word, an outcome count, then that test's effects."""
    sampler = Sampler(backend, seed=seed)
    tests = []
    for _ in range(trials):
        word = reference_word(sampler, 2)
        k = int(sampler.rng.integers(2, 5))
        tests.append([backend.effect_channel(e, word) for e in reference_povm(backend, sampler.rng, word, k)])
    return tests, sampler.rng


def reference_transfer(backend, ch):
    if backend.name == "classical":
        return np.array(ch.kernel, dtype=float)
    return backend.transfer_matrices(ch.kernel[None], ch.input_type, ch.output_type)[0]


def reference_check_causality(backend, tests, tol):
    """Residuals in order, or the message of the first violation."""
    residuals = []
    for idx, test in enumerate(tests):
        if isinstance(test[0], EffectVector):
            word = test[0].system
            coords = sum(np.asarray(e.coords) for e in test)
        else:
            word = test[0].input_type
            coords = sum(reference_transfer(backend, ch)[0, :] for ch in test)
        target = reference_transfer(backend, backend.trace_channel(word))[0, :]
        residual = float(np.max(np.abs(coords - target)))
        if residual > tol:
            return str(CausalityViolationError(residual, f"test #{idx} on {word}"))
        residuals.append(residual)
    return residuals


def reference_random_states(backend, seed, trials):
    sampler = Sampler(backend, seed=seed)
    states = []
    for _ in range(trials):
        word = reference_word(sampler, 1)
        d = backend.hilbert_dim(word)
        if backend.name == "classical":
            states.append(StateVector(backend.simplex_weights(sampler.rng, d), word))
            continue
        g = backend.gaussian(sampler.rng, d, d)
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        states.append(StateVector(backend.state_coords(rho, word), word))
    return states, sampler.rng


def reference_sorted_eigh(m):
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    for i in range(vecs.shape[1]):
        vecs[:, i] = linalg.canonical_phase(vecs[:, i])
    return vals, vecs


def reference_rank(vals):
    top = float(np.max(vals, initial=0.0))
    return 0 if top <= 0.0 else int(np.sum(vals > linalg.RANK_CUTOFF * top))


def reference_partial_trace(rho, dims, keep):
    k = len(dims)
    t = np.asarray(rho).reshape(list(dims) * 2)
    in_subs = list(range(k)) + [i + k if i in keep else i for i in range(k)]
    out_subs = list(keep) + [i + k for i in keep]
    d = int(np.prod([dims[i] for i in keep]))
    return np.einsum(t, in_subs, out_subs).reshape(d, d)


ZERO_STATE_FAILURE = dict(verdict="Failure", purifying_system=None, purified=None, rank=0,
                          marginal_error=None, witness={"reason": "the zero state has no pure extension"})


def reference_purify(backend, state):
    """``purify_state`` one state at a time: the report's fields as a dict.
    The zero state has no pure extension on any theory."""
    word = state.system
    if backend.name == "classical":
        v = np.asarray(state.coords, dtype=float).reshape(-1)
        top = float(np.max(np.abs(v), initial=0.0))
        where = np.argwhere(np.abs(v) > linalg.RANK_CUTOFF * max(top, 1.0))
        rank = len(where)
        if rank == 0:
            return ZERO_STATE_FAILURE
        if rank > 1:
            a = np.zeros_like(v)
            a[tuple(where[0])] = v[tuple(where[0])]
            reason = "classical states with more than one support point have no pure extension"
            return dict(verdict="Failure", purifying_system=None, purified=None, rank=rank,
                        marginal_error=None,
                        witness={"reason": reason, "summands": [a, v - a], "support": where[:, 0].tolist()})
        obj = psi = v
        r = 1
        reduced = v.reshape(len(v), 1).sum(axis=(1,)).reshape(-1)
    else:
        obj = backend.state_object(state.coords, word)
        vals, vecs = reference_sorted_eigh(obj)
        rank = r = reference_rank(vals)
        if rank == 0:
            return ZERO_STATE_FAILURE
        ket = (vecs * np.sqrt(np.clip(vals, 0.0, None)))[:, :rank].reshape(-1)
        psi = backend.project_scalars(np.outer(ket, ket.conj()))
        reduced = reference_partial_trace(psi, [obj.shape[0], r], [0])
    purifying = backend.scratch_system(r)
    joint = word * purifying
    return dict(verdict="Purified", purifying_system=purifying,
                purified=StateVector(backend.state_coords(psi, joint), joint), rank=rank,
                marginal_error=float(np.max(np.abs(reduced - obj))), witness=None)


# -- comparisons ---------------------------------------------------------------


def assert_identical(got, want):
    """Equal values, types and, for arrays, dtypes and bits."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want)
        for key in want:
            assert_identical(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_identical(g, w)
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want, strict=True)
    elif isinstance(want, StateVector):
        assert got.system == want.system
        assert_identical(got.coords, want.coords)
    else:
        assert type(got) is type(want) and got == want


def outcome(backend, tests, tol):
    try:
        return check_causality(backend, tests, tol=tol).residuals
    except CausalityViolationError as e:
        return str(e)


def test_a_stack_of_gaussians_draws_what_one_call_per_matrix_would(theory):
    one, many = np.random.default_rng(3), np.random.default_rng(3)
    each = [theory.gaussian(one, 3, 3) for _ in range(4)]
    assert_identical(list(theory.gaussian(many, 4, 3, 3)), each)
    assert one.bit_generator.state == many.bit_generator.state


@pytest.mark.parametrize("trials", TRIALS)
def test_random_observation_tests_match_the_per_trial_loop(theory, trials):
    words = set()
    for seed in SEEDS:
        want, want_rng = reference_random_observation_tests(theory, seed, trials)
        sampler = Sampler(theory, seed=seed)
        got = sampler.random_observation_tests(trials)
        assert sampler.rng.bit_generator.state == want_rng.bit_generator.state
        assert [[(c.input_type, c.output_type) for c in t] for t in got] == \
            [[(c.input_type, c.output_type) for c in t] for t in want]
        assert_identical([[c.kernel for c in t] for t in got], [[c.kernel for c in t] for t in want])
        words |= {len(t[0].input_type) for t in got}
    if trials == 80:
        assert words == {0, 1, 2}


@pytest.mark.parametrize("trials", TRIALS)
def test_causality_decides_as_the_per_trial_loop(theory, trials):
    failed_later = 0
    for seed in SEEDS:
        tests, _ = reference_random_observation_tests(theory, seed, trials)
        for tol in (1e-9, 5e-16, 0.0):
            got, want = outcome(theory, tests, tol), reference_check_causality(theory, tests, tol)
            assert_identical(got, want)
            failed_later += isinstance(got, str) and "'test #0 on" not in got
        report = check_causality(theory, tests)
        assert report.max_residual == max(report.residuals)
    if trials == 80:
        assert failed_later  # some first failure is not the first test


def test_causality_on_effect_vectors_and_mixed_tests(theory):
    sampler = Sampler(theory, seed=4)
    channel_tests = sampler.random_observation_tests(30)
    vector_tests = [[theory.channel_effect(ch) for ch in t] for t in channel_tests[:15]]
    tests = [t for pair in zip(vector_tests, channel_tests[15:]) for t in pair]
    for tol in (1e-9, 5e-16, 0.0):
        assert_identical(outcome(theory, tests, tol), reference_check_causality(theory, tests, tol))


def test_many_outcomes_on_a_one_coordinate_word_sum_in_outcome_order(theory):
    """Twelve effects on the unit word: a sum over the outcome axis could
    pair them up and round differently from the loop's sum."""
    rng = np.random.default_rng(1)
    tests = []
    for _ in range(40):
        weights = rng.exponential(size=12)
        tests.append([EffectVector(np.array([w]), UNIT) for w in weights / weights.sum()])
    for tol in (1e-9, 0.0):
        assert_identical(outcome(theory, tests, tol), reference_check_causality(theory, tests, tol))
    assert any(check_causality(theory, tests).residuals)


def test_a_malformed_test_raises_only_after_the_tests_before_it_pass(theory):
    tests = Sampler(theory, seed=6).random_observation_tests(4)
    box = Channel(A, A, theory.identity(A).kernel)
    leaky = [Channel(c.input_type, c.output_type, 0.5 * c.kernel) for c in tests[1]]
    with pytest.raises(TypeMismatchError):
        check_causality(theory, [tests[0], [box], leaky])
    with pytest.raises(CausalityViolationError, match="test #1"):
        check_causality(theory, [tests[0], leaky, [box]])


def test_causality_in_groups_changes_no_bit(theory):
    tests = Sampler(theory, seed=8).random_observation_tests(80)
    whole = check_causality(theory, tests).residuals
    parts = [r for at in range(0, 80, 7) for r in check_causality(theory, tests[at:at + 7]).residuals]
    singles = [check_causality(theory, [t]).residuals[0] for t in tests]
    assert_identical(parts, whole)
    assert_identical(singles, whole)


@pytest.mark.parametrize("trials", TRIALS)
def test_random_states_and_their_purification_match_the_per_trial_loop(theory, trials):
    failures = 0
    for seed in SEEDS:
        want, want_rng = reference_random_states(theory, seed, trials)
        sampler = Sampler(theory, seed=seed)
        got = sampler.random_states(trials)
        assert sampler.rng.bit_generator.state == want_rng.bit_generator.state
        assert_identical(got, want)
        results = purify_states(theory, got)
        assert_identical([vars(r) for r in results], [reference_purify(theory, s) for s in want])
        failures += sum(r.verdict == "Failure" for r in results)
    assert (failures > 0) == (theory.name == "classical")


def mixed_states(backend):
    """States on words of 0, 1 and 2 systems, of every rank, and the zero state."""
    sampler = Sampler(backend, seed=11)
    states = []
    for word in (UNIT, A, B, A * B, B * A, A * SystemType.of("C")):
        d = backend.hilbert_dim(word)
        for rank in sorted({1, min(2, d), d}):
            states.append(sampler.state(word, rank))
    states.append(StateVector(np.zeros(backend.state_dim(A)), A))
    point = np.zeros(backend.hilbert_dim(B))
    point[1] = 1.0
    states.append(StateVector(backend.state_coords(backend.diagonal(point), B), B))
    return [states[i] for i in np.random.default_rng(0).permutation(len(states))]


def test_purify_states_on_mixed_words_and_ranks(theory):
    states = mixed_states(theory)
    results = purify_states(theory, states)
    assert_identical([vars(r) for r in results], [reference_purify(theory, s) for s in states])
    assert {r.rank for r in results} >= {0, 1, 2}
    assert {r.verdict for r in results} == {"Purified", "Failure"}


def test_purification_in_groups_changes_no_bit(theory):
    states = mixed_states(theory) + Sampler(theory, seed=2).random_states(40)
    whole = [vars(r) for r in purify_states(theory, states)]
    parts = [vars(r) for at in range(0, len(states), 7) for r in purify_states(theory, states[at:at + 7])]
    singles = [vars(purify_state(theory, s)) for s in states]
    assert_identical(parts, whole)
    assert_identical(singles, whole)


def test_the_one_item_cases_keep_their_failures(theory):
    zero = purify_state(theory, StateVector(np.zeros(theory.state_dim(A)), A))
    assert (zero.verdict, zero.rank) == ("Failure", 0)
    assert zero.witness == {"reason": "the zero state has no pure extension"}
    mixed = theory.uniform_state(B)
    obj = theory.state_object(mixed.coords, B)
    if theory.name == "classical":
        assert purify_state(theory, mixed).witness["support"] == [0, 1, 2]
        with pytest.raises(BackendLacksPurificationError, match="more than one support point"):
            theory.purification(obj, theory.extremal_decomposition(obj))
    else:
        psi, r = theory.purification(obj, theory.extremal_decomposition(obj))
        assert r == 3 and psi.shape == (9, 9)
