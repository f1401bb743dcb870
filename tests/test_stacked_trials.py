"""Stacked sampled audits against plain loops of the layout they declare.

``Sampler.observation_test_block`` and ``Sampler.state_block`` draw the trials
of the sampled audits in the stacked layout of ``optlab.sampling``, walked
block by block by ``run_trials``: the word lengths, the label picks and the
redraw rounds of the rejected trials, then the outcome counts, then each
word's numbers in one call, in order of its first trial.  ``check_causality``
and ``purify_block`` work the trials out as stacks.  The references below
make the same generator calls, split the numbers trial by trial, and work
each trial out alone with the primitives the stacks replaced (one test's
effects, one state, ``sorted_eigh``, ``extremal_decomposition``,
``purification`` and the partial trace), so every comparison here is bit
for bit.  A matrix theory's transfer matrices and
state objects come from one-item calls of ``transfer_matrices`` and
``state_object``.
"""

from functools import partial

import numpy as np
import pytest

from fixture_sampler import FixtureSampler
from optlab import SystemType, get_backend, linalg
from optlab.audit import check_causality, purify_block, purify_state, purify_states
from optlab.backends.base import Channel, EffectVector, StateVector
from optlab.diagram import UNIT
from optlab.errors import BackendLacksPurificationError, CausalityViolationError, TypeMismatchError
from optlab.sampling import TRIAL_BLOCK, Sampler, run_trials

SYSTEMS = {"A": 2, "B": 3, "C": 2}
A, B = SystemType.of("A"), SystemType.of("B")
TRIALS = (1, 7, 80, 257, 600)  # across the block edges at 256 and 512


def test_the_block_edges_are_at_every_256_trials():
    """The block size is part of what a seed draws (README, JSON conventions)."""
    assert TRIAL_BLOCK == 256


def seeds(trials):
    return range(10) if trials <= 80 else range(3)


@pytest.fixture(scope="module", params=("quantum", "quantum-real", "classical"))
def theory(request):
    return get_backend(request.param, SYSTEMS)


# -- plain loops of the declared layout -----------------------------------------


def reference_words(backend, rng, n, max_len):
    """A block's words: lengths, then picks, then rounds of both for the
    rejected trials only; after 20 rounds, the smallest label."""
    labels = sorted(backend.systems)
    words, todo = [None] * n, list(range(n))
    for _ in range(20):
        if not todo:
            break
        lengths = rng.integers(0, max_len + 1, size=len(todo))
        picks = rng.integers(len(labels), size=(len(todo), max_len))
        rejected = []
        for t, length, row in zip(todo, lengths, picks):
            word = SystemType(tuple(labels[p] for p in row[:length]))
            if backend.hilbert_dim(word) <= Sampler.MAX_CARRIER:
                words[t] = word
            else:
                rejected.append(t)
        todo = rejected
    for t in todo:
        words[t] = SystemType((min(labels, key=backend.primitive_dim),))
    return words


def by_first_trial(words):
    """Each word's trials, the words in order of their first trial."""
    trials = {}
    for t, word in enumerate(words):
        trials.setdefault(word, []).append(t)
    return trials


def reference_numbers(backend, rng, word, count):
    """``count`` matrices (or weight rows) on ``word``, one draw after another."""
    d = backend.hilbert_dim(word)
    if backend.name == "classical":
        return [rng.exponential(size=d) for _ in range(count)]
    return [backend.gaussian(rng, d, d) for _ in range(count)]


def reference_povm(backend, numbers):
    """One test's effect objects from its own numbers alone."""
    if backend.name == "classical":
        w = np.array(numbers)
        return list(w / w.sum(axis=0))
    raw = [g @ g.conj().T for g in numbers]
    vals, vecs = np.linalg.eigh(sum(raw))
    corr = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    return [corr @ e @ corr.conj().T for e in raw]


def reference_random_observation_tests(backend, seed, trials, blocks=None):
    """The layout's tests as lists of effect channels, and the generator
    after them (after ``blocks`` blocks, when given)."""
    rng = np.random.default_rng(seed)
    tests = []
    for first in range(0, trials, TRIAL_BLOCK)[:blocks]:
        n = min(TRIAL_BLOCK, trials - first)
        words = reference_words(backend, rng, n, 2)
        ks = rng.integers(2, 5, size=n)
        numbers = [None] * n
        for word, at in by_first_trial(words).items():
            drawn = iter(reference_numbers(backend, rng, word, int(sum(ks[t] for t in at))))
            for t in at:
                numbers[t] = [next(drawn) for _ in range(ks[t])]
        tests += [[backend.effect_channel(e, word) for e in reference_povm(backend, m)]
                  for word, m in zip(words, numbers)]
    return tests, rng


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
    rng = np.random.default_rng(seed)
    states = []
    for first in range(0, trials, TRIAL_BLOCK):
        words = reference_words(backend, rng, min(TRIAL_BLOCK, trials - first), 1)
        block = [None] * len(words)
        for word, at in by_first_trial(words).items():
            for t, g in zip(at, reference_numbers(backend, rng, word, len(at))):
                if backend.name == "classical":
                    block[t] = StateVector(g / g.sum(), word)
                    continue
                rho = g @ g.conj().T
                rho = rho / np.trace(rho).real
                block[t] = StateVector(backend.state_coords(rho, word), word)
        states += block
    return states, rng


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


def drawn_blocks(draw, trials):
    """Each block that a walk of ``trials`` draws, with its first trial,
    checking that the block's stacks cover its trials once, in order."""
    blocks = []

    def keep(first, block):
        n = min(TRIAL_BLOCK, trials - first)
        assert sorted(t for _, at, _ in block for t in at) == list(range(n))
        assert all(list(at) == sorted(at) for _, at, _ in block)
        blocks.append((first, block))
        return [None] * n, ()

    run_trials(trials, draw, keep)
    return blocks


def sampled_tests(sampler, trials):
    """A walk of ``trials`` drawn observation tests, as ``check_causality`` takes it."""
    return partial(run_trials, trials, sampler.observation_test_block)


def outcome_counts(kernels):
    """The outcome count of each of a stack of padded tests: its effects that are not zero."""
    return kernels.any(axis=(2, 3)).sum(axis=1)


def drawn_kernels(sampler, trials):
    """Each drawn test's word, outcome count and kernels, in trial order."""
    got = [None] * trials
    for first, block in drawn_blocks(sampler.observation_test_block, trials):
        for word, at, kernels in block:
            ks = outcome_counts(kernels)
            assert kernels.shape[:2] == (len(at), ks.max())
            for t, k, test in zip((first + at).tolist(), ks.tolist(), kernels):
                assert not test[k:].any()  # past a test's outcome count, zero effects
                got[t] = (word, k, test[:k])
    return got


def drawn_states(sampler, trials):
    """The drawn states, in trial order."""
    states = [None] * trials
    for first, block in drawn_blocks(sampler.state_block, trials):
        for word, at, coords in block:
            for t, c in zip((first + at).tolist(), coords):
                states[t] = StateVector(c, word)
    return states


def test_the_driver_keeps_each_trial_and_the_failures_in_trial_order():
    """Blocks of 256 (the last one short), every statistic in trial order, the
    failing trials ascending; a decision that raises ends the walk."""
    drawn = []

    def draw(n):
        drawn.append(n)
        return np.arange(n)

    def decide(first, block):
        trials = first + block
        return (0.5 * trials).tolist(), trials % 100 == 99

    statistics, failures = run_trials(600, draw, decide)
    assert drawn == [256, 256, 88]
    assert statistics == [0.5 * t for t in range(600)]
    assert failures == [99, 199, 299, 399, 499, 599]
    assert run_trials(0, draw, decide) == ([], []) and len(drawn) == 3

    def refuse_the_second(first, block):
        if first:
            raise ValueError(first)
        return decide(first, block)

    drawn.clear()
    with pytest.raises(ValueError, match="256"):
        run_trials(600, draw, refuse_the_second)
    assert drawn == [256, 256]


@pytest.mark.parametrize("trials", TRIALS)
def test_random_observation_tests_match_the_per_trial_loop(theory, trials):
    words = set()
    for seed in seeds(trials):
        want, want_rng = reference_random_observation_tests(theory, seed, trials)
        sampler = Sampler(theory, seed=seed)
        got = drawn_kernels(sampler, trials)
        assert sampler.rng.bit_generator.state == want_rng.bit_generator.state
        assert [(word, k) for word, k, _ in got] == [(t[0].input_type, len(t)) for t in want]
        assert all(c.output_type == UNIT for t in want for c in t)
        assert_identical([kernels for *_, kernels in got], [np.array([c.kernel for c in t]) for t in want])
        words |= {word for word, *_ in got}
    if trials >= 80:
        assert {len(w) for w in words} == {0, 1, 2}


def test_no_drawn_word_exceeds_the_largest_carrier(theory):
    """Every word of at most two systems fits but B*B (9 > 8), and it never comes."""
    words = set()
    for seed in range(4):
        words |= {w for _, b in drawn_blocks(Sampler(theory, seed=seed).observation_test_block, 600) for w, *_ in b}
        words |= {state.system for state in drawn_states(Sampler(theory, seed=seed), 300)}
    labels = [UNIT, *map(SystemType.of, SYSTEMS)]
    fitting = {w * v for w in labels for v in labels if theory.hilbert_dim(w * v) <= Sampler.MAX_CARRIER}
    assert words == fitting and B * B not in words
    assert max(map(theory.hilbert_dim, words)) == 6


class LongWords:
    """A generator that always draws words of two systems, and logs its calls."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def integers(self, low, high=None, size=None):
        self.calls.append(("integers", low, high, size))
        if (low, high) == (0, 3):
            return np.full(() if size is None else size, 2)
        return self.rng.integers(low, high, size=size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("dims, smallest", [({"X": 3, "Y": 3}, "X"), ({"P": 4, "Q": 3}, "Q")])
def test_words_that_never_fit_fall_back_to_the_smallest_label(dims, smallest):
    """Every two-system word is over ``MAX_CARRIER``: 20 rounds, then the
    smallest label (the first of equals), as ``word`` gives it."""
    backend = get_backend("quantum", dims)
    sampler = FixtureSampler(backend)
    sampler.rng = LongWords(0)
    block = sampler.observation_test_block(5)
    assert [(str(word), list(at)) for word, at, _ in block] == [(smallest, [0, 1, 2, 3, 4])]
    rounds = [("integers", 0, 3, 5), ("integers", 2, None, (5, 2))] * 20
    assert sampler.rng.calls == rounds + [("integers", 2, 5, 5)]
    assert sampler.word() == SystemType.of(smallest)


def test_a_block_is_decided_before_the_next_is_drawn(theory):
    """A failure in the first block leaves the generator where that block left it."""
    for seed in range(3):
        sampler = Sampler(theory, seed=seed)
        with pytest.raises(CausalityViolationError):
            check_causality(theory, sampled_tests(sampler, 600), tol=0.0)
        tests, rng = reference_random_observation_tests(theory, seed, 600, blocks=1)
        assert "test #" in reference_check_causality(theory, tests, 0.0)
        assert sampler.rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("trials", TRIALS)
def test_causality_decides_as_the_per_trial_loop(theory, trials):
    failed_later = 0
    for seed in seeds(trials):
        tests, _ = reference_random_observation_tests(theory, seed, trials)
        for tol in (1e-9, 5e-16, 0.0):
            got = outcome(theory, sampled_tests(Sampler(theory, seed=seed), trials), tol)
            assert_identical(got, reference_check_causality(theory, tests, tol))
            assert_identical(outcome(theory, tests, tol), got)
            failed_later += isinstance(got, str) and "'test #0 on" not in got
        report = check_causality(theory, sampled_tests(Sampler(theory, seed=seed), trials))
        assert report.max_residual == max(report.residuals) and report.tests_checked == trials
    if trials == 80:
        assert failed_later  # some first failure is not the first test


def test_a_failure_in_a_later_block_is_numbered_in_the_run(theory):
    """At the largest residual of the first block as tolerance, the first
    block passes, and a test over it in a later block fails by its number
    in the run.  Classical residuals take a few values only, and no later
    block goes over its first block's largest."""
    later = 0
    for seed in range(3):
        tests, _ = reference_random_observation_tests(theory, seed, 600)
        residuals = reference_check_causality(theory, tests, 1.0)
        tol = max(residuals[:TRIAL_BLOCK])
        got = outcome(theory, sampled_tests(Sampler(theory, seed=seed), 600), tol)
        assert_identical(got, reference_check_causality(theory, tests, tol))
        later += isinstance(got, str)
    assert (later > 0) == (theory.name != "classical")


def test_padded_and_unpadded_outcome_sums_are_bit_identical(theory):
    """A stack pads each test to the largest outcome count with zero effects;
    its sum over all of them is each test's own sum, bit for bit."""
    padded_tests = 0
    for _, block in drawn_blocks(Sampler(theory, seed=9).observation_test_block, 300):
        for word, _, kernels in block:
            coords = theory.transfer_matrices(kernels.reshape(-1, *kernels.shape[2:]), word, UNIT)[:, 0]
            coords = coords.reshape(*kernels.shape[:2], -1)
            padded = sum(coords[:, j] for j in range(coords.shape[1]))
            for total, own, k in zip(padded, coords, outcome_counts(kernels)):
                assert_identical(total, sum(own[j] for j in range(k)))
                padded_tests += k < coords.shape[1]
    assert padded_tests > 100


def test_causality_on_effect_vectors_and_mixed_tests(theory):
    channel_tests, _ = reference_random_observation_tests(theory, 4, 30)
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
    tests, _ = reference_random_observation_tests(theory, 6, 4)
    box = Channel(A, A, theory.identity(A).kernel)
    leaky = [Channel(c.input_type, c.output_type, 0.5 * c.kernel) for c in tests[1]]
    with pytest.raises(TypeMismatchError):
        check_causality(theory, [tests[0], [box], leaky])
    with pytest.raises(CausalityViolationError, match="test #1"):
        check_causality(theory, [tests[0], leaky, [box]])


def test_causality_in_groups_changes_no_bit(theory):
    tests, _ = reference_random_observation_tests(theory, 8, 80)
    whole = check_causality(theory, tests).residuals
    parts = [r for at in range(0, 80, 7) for r in check_causality(theory, tests[at:at + 7]).residuals]
    singles = [check_causality(theory, [t]).residuals[0] for t in tests]
    assert_identical(parts, whole)
    assert_identical(singles, whole)
    assert_identical(check_causality(theory, iter(tests)).residuals, whole)  # any iterable of tests


@pytest.mark.parametrize("trials", TRIALS)
def test_random_states_and_their_purification_match_the_per_trial_loop(theory, trials):
    failures = 0
    for seed in seeds(trials):
        want, want_rng = reference_random_states(theory, seed, trials)
        sampler = Sampler(theory, seed=seed)
        got = drawn_states(sampler, trials)
        assert sampler.rng.bit_generator.state == want_rng.bit_generator.state
        assert_identical(got, want)
        results, failed = run_trials(trials, Sampler(theory, seed=seed).state_block,
                                     lambda first, block: purify_block(theory, block))
        assert_identical([vars(r) for r in results], [reference_purify(theory, s) for s in want])
        assert failed == [t for t, r in enumerate(results) if r.verdict == "Failure"]
        failures += len(failed)
    assert (failures > 0) == (theory.name == "classical")


def mixed_states(backend):
    """States on words of 0, 1 and 2 systems, of every rank, and the zero state."""
    sampler = FixtureSampler(backend, seed=11)
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
    states = mixed_states(theory) + drawn_states(Sampler(theory, seed=2), 40)
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
