"""Random-instance generators: physicality, determinism, reproducibility."""

import numpy as np

from optlab import UNIT, Channel, SystemType
from optlab.evaluator import evaluate_channel
from fixture_sampler import FixtureSampler
from optlab.sampling import spawn_rngs

A = SystemType.of("A")
B = SystemType.of("B")


def test_same_seed_same_stream(backend):
    a = FixtureSampler(backend, seed=42)
    b = FixtureSampler(backend, seed=42)
    for _ in range(3):
        ca = a.channel(A, B)
        cb = b.channel(A, B)
        np.testing.assert_array_equal(ca.kernel, cb.kernel)


def test_different_seeds_differ(backend):
    a = FixtureSampler(backend, seed=1).channel(A, A)
    b = FixtureSampler(backend, seed=2).channel(A, A)
    assert np.abs(a.kernel - b.kernel).max() > 1e-6


def test_spawned_rngs_are_independent():
    r1, r2 = spawn_rngs(9, 2)
    assert r1.integers(1 << 30) != r2.integers(1 << 30)


def test_states_are_normalized(backend):
    s = FixtureSampler(backend, seed=0)
    for _ in range(5):
        st = s.state(A)
        np.testing.assert_allclose(backend.trace_effect(A).pair(st), 1.0,
                                   atol=1e-12)


def test_states_have_the_rank_asked_for(backend):
    """Classically, a rank-r state sits on r points."""
    s = FixtureSampler(backend, seed=1)
    for word in (UNIT, A, B, A * B):
        obj = backend.state_object(s.state(word).coords, word)
        assert backend.extremal_decomposition(obj).rank == backend.hilbert_dim(word)
        for rank in range(1, backend.hilbert_dim(word) + 1):
            obj = backend.state_object(s.state(word, rank).coords, word)
            assert backend.extremal_decomposition(obj).rank == rank


def test_channels_are_deterministic_and_physical(backend):
    s = FixtureSampler(backend, seed=5)
    for win, wout in [(A, A), (A, B), (B, A)]:
        ch = s.channel(win, wout)
        assert backend.certify_channel(ch).physical
        assert backend.deterministic_residual(ch) < 1e-10


def test_unitary_channels_are_reversible_kernels(backend):
    s = FixtureSampler(backend, seed=7)
    ch = s.unitary_channel(A)
    k = ch.kernel
    np.testing.assert_allclose(k @ k.conj().T, np.eye(k.shape[0]), atol=1e-10)


def test_drawn_unitaries_conjugate_to_physical_channels(backend):
    """On every theory, including the classical one, whose reversible maps
    are the permutations."""
    s = FixtureSampler(backend, seed=1)
    for word in (A, B, A * B):
        u = s.random_unitary(backend.hilbert_dim(word))
        assert backend.certify_channel(backend.conjugation_channel(u, word)).physical


def test_classical_unitary_channels_permute_as_one_permutation_call_draws(classical):
    """The kernel is the matrix taking point i to point ``rng.permutation(d)[i]``,
    and the generator moves by that one call."""
    for seed in range(5):
        s, rng = FixtureSampler(classical, seed=seed), np.random.default_rng(seed)
        for word in (A, B, A * B):
            d = classical.hilbert_dim(word)
            want = np.zeros((d, d))
            want[rng.permutation(d), np.arange(d)] = 1.0
            np.testing.assert_array_equal(s.unitary_channel(word).kernel, want, strict=True)
        assert s.rng.bit_generator.state == rng.bit_generator.state


def test_povm_completeness(backend):
    s = FixtureSampler(backend, seed=9)
    effects = s.povm(A, 3)
    total = sum(np.asarray(e, dtype=complex) for e in effects)
    d = backend.hilbert_dim(A)
    if backend.name == "classical":
        np.testing.assert_allclose(total.real, np.ones(d), atol=1e-12)
    else:
        np.testing.assert_allclose(total, np.eye(d), atol=1e-12)


def test_observation_channels_sum_to_trace(backend):
    s = FixtureSampler(backend, seed=11)
    chans = s.observation_channels(A, 4)
    total = sum(c.kernel for c in chans)
    np.testing.assert_allclose(total, backend.trace_channel(A).kernel,
                               atol=1e-12)


def test_instrument_sums_to_deterministic(backend):
    """The one derivation on every theory, into and out of the unit too."""
    s = FixtureSampler(backend, seed=13)
    for win, wout in [(A, B), (A * B, A), (UNIT, A * B), (B, UNIT)]:
        for k in (1, 3):
            branches = s.instrument(win, wout, k)
            assert len(branches) == k
            total = Channel(win, wout, sum(c.kernel for c in branches))
            assert backend.deterministic_residual(total) < 1e-10
            for c in branches:
                assert (c.input_type, c.output_type) == (win, wout)
                assert backend.certify_channel(c).physical


def test_identity_instrument_branches_scale_identity(backend):
    s = FixtureSampler(backend, seed=15)
    branches = s.identity_instrument(A, 3)
    ident = backend.kernel_identity(A)
    weights = []
    for c in branches:
        w = np.trace(c.kernel).real / np.trace(ident).real
        weights.append(w)
        np.testing.assert_allclose(c.kernel, w * ident, atol=1e-12)
    np.testing.assert_allclose(sum(weights), 1.0, atol=1e-12)


def test_preparation_branches_sum_to_state(backend):
    s = FixtureSampler(backend, seed=17)
    parts = s.preparation_branches(A, 3)
    total = sum(np.asarray(p, dtype=complex) for p in parts)
    if backend.name == "classical":
        np.testing.assert_allclose(total.real.sum(), 1.0, atol=1e-12)
    else:
        np.testing.assert_allclose(np.trace(total).real, 1.0, atol=1e-12)


def test_simplex_weights(backend):
    s = FixtureSampler(backend, seed=19)
    w = s.simplex_weights(6)
    assert (w > 0).all()
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)


def test_sampled_diagrams_type_check(backend):
    s = FixtureSampler(backend, seed=21)
    for _ in range(10):
        win = s.word()
        wout = s.word()
        d = s.diagram(win, wout, depth=3)
        assert d.input_type == win
        assert d.output_type == wout
        ch = evaluate_channel(d, backend, s.bindings)  # checks every sequential wire
        assert (ch.input_type, ch.output_type) == (win, wout)


def test_stacked_channels_draw_what_single_channels_draw(backend):
    """``channels(w, w, n)`` consumes the stream of n calls to ``channel``
    and gives the same kernels; the generators end in the same state."""
    for word in (A, B, A * B):
        stacked, single = FixtureSampler(backend, seed=11), FixtureSampler(backend, seed=11)
        kernels = stacked.channels(word, word, 7)
        one_by_one = np.stack([single.channel(word, word).kernel for _ in range(7)])
        assert kernels.shape == one_by_one.shape
        assert kernels.dtype == one_by_one.dtype
        np.testing.assert_allclose(kernels, one_by_one, rtol=0, atol=1e-13)
        assert stacked.rng.bit_generator.state == single.rng.bit_generator.state
        for k in kernels:
            ch = Channel(word, word, k)
            assert backend.certify_channel(ch).physical
            assert backend.deterministic_residual(ch) < 1e-10
