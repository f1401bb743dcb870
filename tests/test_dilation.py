"""Pure realizations of channels, the transformation/state bridge, and the
no-information-without-disturbance audit."""

import numpy as np
import pytest

from optlab import Channel, SystemType, get_backend
from optlab.audit import (
    choi_correspondence,
    dilation_uniqueness,
    is_pure_transformation,
    niwd_check,
    stinespring_dilate,
)
from optlab.backends.base import Payload
from optlab.errors import (
    BackendLacksDilationError,
    BackendLacksPurificationError,
    BranchSumMismatchError,
    MarginalMismatchError,
    OptlabError,
)
from optlab.sampling import Sampler

A = SystemType.of("A")
B = SystemType.of("B")


# ---------------------------------------------------------------------------
# independent oracle for environment sizes
# ---------------------------------------------------------------------------

def choi_by_action(apply, din, dout):
    """Assemble the input-first process matrix entry by entry from the action."""
    j = np.zeros((din * dout, din * dout), dtype=complex)
    for i in range(din):
        for k in range(din):
            e = np.zeros((din, din))
            e[i, k] = 1.0
            j += np.kron(e, apply(e))
    return j


def env_dim_oracle(apply, din, dout):
    j = choi_by_action(apply, din, dout)
    vals = np.linalg.eigvalsh(0.5 * (j + j.conj().T))
    return int(np.sum(vals > 1e-9 * max(float(vals.max()), 1.0)))


GAMMA = 0.5
DAMP_KRAUS = [
    np.array([[1.0, 0.0], [0.0, np.sqrt(1 - GAMMA)]]),
    np.array([[0.0, np.sqrt(GAMMA)], [0.0, 0.0]]),
]
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)

# frozen against env_dim_oracle (re-derived below in test_environment_oracle)
DAMP_ENV = 2
DEPOLARIZING_ENV = 4
UNITARY_ENV = 1


def _damp(x):
    return sum(k @ x @ k.conj().T for k in DAMP_KRAUS)


def test_environment_oracle():
    assert env_dim_oracle(_damp, 2, 2) == DAMP_ENV
    assert env_dim_oracle(lambda x: np.trace(x) * np.eye(2) / 2, 2, 2) == DEPOLARIZING_ENV
    assert env_dim_oracle(lambda x: HADAMARD @ x @ HADAMARD.conj().T, 2, 2) == UNITARY_ENV


# ---------------------------------------------------------------------------
# Stinespring-style realizations
# ---------------------------------------------------------------------------

def test_amplitude_damping_needs_a_two_level_environment(quantum):
    ch = quantum.compile_payload(Payload("kraus", DAMP_KRAUS), A, A)
    res = stinespring_dilate(quantum, ch)
    assert res.environment == quantum.scratch_system(DAMP_ENV)
    assert res.environment_dim == DAMP_ENV
    assert res.marginal_error <= 1e-10
    assert res.isometry_residual <= 1e-10


def test_depolarizing_needs_a_four_level_environment(quantum):
    choi = np.eye(4) / 2  # erase-and-replace with the uniform state
    ch = quantum.channel_from_choi(choi, A, A)
    res = stinespring_dilate(quantum, ch)
    assert res.environment_dim == DEPOLARIZING_ENV


def test_unitary_dilates_trivially(quantum):
    ch = quantum.conjugation_channel(HADAMARD, A)
    res = stinespring_dilate(quantum, ch)
    assert res.environment_dim == UNITARY_ENV
    assert res.marginal_error <= 1e-12


@pytest.mark.parametrize("word", [A, B], ids=["d2", "d3"])
def test_sampled_channels_dilate(word):
    """Random channels acquire pure realizations with tight margins."""
    for theory in ("quantum", "quantum-real"):
        backend = get_backend(theory, systems={"A": 2, "B": 3})
        s = Sampler(backend, seed=17)
        for _ in range(5):
            ch = s.channel(word, word)
            res = stinespring_dilate(backend, ch)
            assert res.marginal_error <= 1e-10
            assert res.isometry_residual <= 1e-10
            choi_rank = int(np.sum(np.linalg.eigvalsh(backend.channel_choi(ch)) > 1e-9))
            assert res.environment_dim == len(res.kraus) == choi_rank
            assert res.channel.output_type == word * res.environment
            cert = backend.certify_channel(res.channel)
            assert cert.physical
            assert is_pure_transformation(backend, res.channel)


def test_dilation_environment_matches_oracle(quantum):
    s = Sampler(quantum, seed=23)
    for _ in range(5):
        ch = s.channel(A, B)
        lio = ch.kernel

        def apply(x, lio=lio):
            return (lio @ x.reshape(-1)).reshape(3, 3)

        assert stinespring_dilate(quantum, ch).environment_dim == env_dim_oracle(
            apply, 2, 3
        )


def test_substochastic_maps_are_rejected(quantum):
    s = Sampler(quantum, seed=29)
    lossy = Channel(A, A, 0.5 * s.channel(A, A).kernel)
    with pytest.raises(OptlabError, match="deterministic"):
        stinespring_dilate(quantum, lossy)


def test_classical_point_preparation_is_already_pure(classical):
    one = classical.scratch_system(1)
    kernel = np.array([[0.0], [1.0]])
    res = stinespring_dilate(classical, Channel(one, A, kernel))
    assert res.environment_dim == 1
    assert res.marginal_error == 0.0
    np.testing.assert_array_equal(res.isometry, kernel)


def test_classical_generic_channels_have_no_pure_realization(classical):
    s = Sampler(classical, seed=31)
    with pytest.raises(BackendLacksDilationError, match="nonzero") as refused:
        stinespring_dilate(classical, s.channel(A, A))
    assert isinstance(refused.value.__cause__, BackendLacksPurificationError)


@pytest.mark.parametrize("theory", ["quantum", "quantum-real"])
def test_dilation_is_the_purified_choi_state(theory):
    """Operational Stinespring: the pure channel's Choi object is the
    purification of the channel's, and discarding the environment from it
    gives the channel's Choi object back."""
    backend = get_backend(theory, systems={"A": 2, "B": 3})
    s = Sampler(backend, seed=67)
    for win, wout in ((A, A), (A, B), (B, A)):
        ch = s.channel(win, wout)
        choi = backend.channel_choi(ch)
        psi, r = backend.purification(choi, backend.extremal_decomposition(choi))
        res = stinespring_dilate(backend, ch)
        pure_choi = backend.channel_choi(res.channel)
        assert res.environment_dim == r
        np.testing.assert_allclose(pure_choi, psi, atol=1e-12)
        dims = [backend.hilbert_dim(win), backend.hilbert_dim(wout), r]
        np.testing.assert_allclose(backend.partial_trace(pure_choi, dims, [0, 1]), choi, atol=1e-12)


# ---------------------------------------------------------------------------
# essential uniqueness of the realization
# ---------------------------------------------------------------------------

def _stack_isometry(kraus):
    r = len(kraus)
    dout, din = kraus[0].shape
    v = np.zeros((dout * r, din), dtype=complex)
    for c, k in enumerate(kraus):
        v[c::r, :] = k
    return v


@pytest.mark.parametrize("word", [A, B], ids=["d2", "d3"])
def test_two_operator_sum_forms_are_connected(quantum, word):
    """Mixing the operator-sum form by a unitary yields the same channel;
    the two realizations must then differ by a reversible environment map."""
    s = Sampler(quantum, seed=37)
    for _ in range(4):
        ch = s.channel(word, word)
        kraus = stinespring_dilate(quantum, ch).kraus
        r = len(kraus)
        w = s.random_unitary(r)
        mixed = [sum(w[a, b] * kraus[b] for b in range(r)) for a in range(r)]
        env = quantum.scratch_system(r)
        p1 = quantum.conjugation_channel(_stack_isometry(kraus), word, word * env)
        p2 = quantum.conjugation_channel(_stack_isometry(mixed), word, word * env)
        rep = dilation_uniqueness(quantum, p1, p2, word)
        assert rep.verdict == "Connected"
        assert rep.replay_error <= 1e-9
        assert rep.channel.input_type == env


def test_identical_realizations_connect_by_identity(quantum):
    ch = quantum.compile_payload(Payload("kraus", DAMP_KRAUS), A, A)
    p = stinespring_dilate(quantum, ch).channel
    rep = dilation_uniqueness(quantum, p, p, A)
    assert rep.verdict == "Connected"
    np.testing.assert_allclose(rep.matrix, np.eye(DAMP_ENV), atol=1e-9)


def test_unequal_marginals_are_refused(quantum):
    s = Sampler(quantum, seed=41)
    p1 = stinespring_dilate(quantum, s.unitary_channel(A)).channel
    p2 = stinespring_dilate(quantum, s.unitary_channel(A)).channel
    with pytest.raises(MarginalMismatchError):
        dilation_uniqueness(quantum, p1, p2, A)


# the same three on real amplitudes, whose connecting map keeps only the real
# part of the Procrustes solution


@pytest.mark.parametrize("word", [A, B], ids=["d2", "d3"])
def test_two_operator_sum_forms_are_connected_real_amplitudes(real_quantum, word):
    test_two_operator_sum_forms_are_connected(real_quantum, word)


def test_identical_realizations_connect_by_identity_real_amplitudes(real_quantum):
    test_identical_realizations_connect_by_identity(real_quantum)


def test_unequal_marginals_are_refused_real_amplitudes(real_quantum):
    test_unequal_marginals_are_refused(real_quantum)


def test_classical_uniqueness_is_unavailable(classical):
    one = classical.scratch_system(1)
    p = Channel(one, A * one, np.array([[1.0], [0.0]]))
    with pytest.raises(BackendLacksDilationError):
        dilation_uniqueness(classical, p, p, A)


# ---------------------------------------------------------------------------
# transformation/state bridge
# ---------------------------------------------------------------------------

# column rank of the bridge equals the kernel-space dimension of the theory
BRIDGE_RANK = {
    ("quantum", "A", "A"): 16,
    ("quantum", "A", "B"): 36,
    ("quantum", "B", "B"): 81,
    ("quantum-real", "A", "A"): 10,
    ("quantum-real", "A", "B"): 21,
    ("quantum-real", "B", "B"): 45,
}


@pytest.mark.parametrize(
    "theory,win,wout",
    sorted(BRIDGE_RANK),
    ids=lambda v: str(v),
)
def test_bridge_is_injective(theory, win, wout):
    backend = get_backend(theory, systems={"A": 2, "B": 3})
    corr = choi_correspondence(backend, SystemType.of(win), SystemType.of(wout))
    assert corr.required == BRIDGE_RANK[(theory, win, wout)]
    assert corr.rank == corr.required
    assert corr.injective


@pytest.mark.parametrize("theory", ["quantum", "quantum-real"])
def test_bridge_round_trip(theory):
    backend = get_backend(theory, systems={"A": 2, "B": 3})
    corr = choi_correspondence(backend, A, B)
    s = Sampler(backend, seed=43)
    for _ in range(10):
        ch = s.channel(A, B)
        st = corr.image_state(ch)
        rec, residual = corr.recover(st)
        assert residual <= 1e-12
        assert float(np.max(np.abs(rec.kernel - ch.kernel))) <= 1e-12


def test_bridge_sits_over_a_pure_extension(quantum):
    corr = choi_correspondence(quantum, A, A)
    assert corr.pure_state.system == A * corr.reference
    ident = Channel(A, A, quantum.kernel_identity(A))
    st = corr.image_state(ident)
    np.testing.assert_allclose(st.coords, corr.pure_state.coords, atol=1e-12)


def test_equal_images_mean_equal_channels(quantum):
    corr = choi_correspondence(quantum, A, A)
    s = Sampler(quantum, seed=47)
    c1, c2 = s.channel(A, A), s.channel(A, A)
    gap = float(
        np.max(np.abs(np.asarray(corr.image_state(c1).coords)
                      - np.asarray(corr.image_state(c2).coords)))
    )
    assert gap > 1e-3  # distinct channels land on distinct states
    copy = Channel(A, A, c1.kernel.copy())
    np.testing.assert_allclose(
        corr.image_state(copy).coords, corr.image_state(c1).coords, atol=0
    )


def test_classical_theory_has_no_bridge(classical):
    with pytest.raises(BackendLacksPurificationError):
        choi_correspondence(classical, A, A)


# ---------------------------------------------------------------------------
# no information without disturbance
# ---------------------------------------------------------------------------

def test_identity_instruments_carry_no_information(backend):
    s = Sampler(backend, seed=53)
    for k in (2, 3, 4):
        rep = niwd_check(backend, s.identity_instrument(A, k))
        assert rep.verdict == "Holds"
        assert abs(rep.weights_total - 1.0) <= 1e-12
        assert rep.max_deviation <= 1e-9
        assert rep.offending_label is None


def test_classical_readout_extracts_without_disturbing(classical):
    branches = [
        Channel(A, A, np.diag([1.0, 0.0])),
        Channel(A, A, np.diag([0.0, 1.0])),
    ]
    rep = niwd_check(classical, branches)
    assert rep.verdict == "Violated"
    assert rep.weights == {"0": 0.5, "1": 0.5}
    assert rep.max_deviation == pytest.approx(0.5)
    assert rep.offending_label == "0"


def test_quantum_readout_fails_the_sum_condition(quantum):
    """The measure-and-forget basis instrument sums to dephasing, not the
    identity, so it never reaches the proportionality check."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    branches = [
        quantum.compile_payload(Payload("kraus", [p]), A, A)
        for p in (p0, p1)
    ]
    with pytest.raises(BranchSumMismatchError):
        niwd_check(quantum, branches)


def test_informative_instruments_must_disturb(quantum):
    s = Sampler(quantum, seed=59)
    with pytest.raises(BranchSumMismatchError, match="identity"):
        niwd_check(quantum, s.instrument(A, A, 3))


def test_weights_match_branch_traces(backend):
    s = Sampler(backend, seed=61)
    branches = s.identity_instrument(B, 3)
    rep = niwd_check(backend, branches)
    d = backend.hilbert_dim(B)
    for label, ch in zip(rep.weights, branches):
        assert rep.weights[label] == pytest.approx(
            float(np.real(np.trace(ch.kernel))) / np.trace(
                backend.kernel_identity(B)
            ).real
        )
