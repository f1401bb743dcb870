"""Pure extensions: existence, essential uniqueness, and steering."""

import itertools

import numpy as np
import pytest

from optlab import Channel, SystemType, UNIT, get_backend
from optlab.audit import (
    marginal,
    purification_uniqueness,
    purify_state,
    steering_measurement,
)
from optlab.errors import BranchSumMismatchError, MarginalMismatchError
from fixture_sampler import FixtureSampler

A = SystemType.of("A")
B = SystemType.of("B")


def as_state(backend, obj, word):
    return backend.channel_state(backend.state_channel(obj, word))


# -- existence ---------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_quantum_states_purify_at_rank_dimension(d):
    b = get_backend("quantum", {"A": d})
    s = FixtureSampler(b, seed=d)
    for rank in range(1, d + 1):
        rho = s.density_matrix(d, rank=rank)
        result = purify_state(b, as_state(b, rho, A))
        assert result.verdict == "Purified"
        assert b.hilbert_dim(result.purifying_system) == rank
        assert result.marginal_error < 1e-10
        got = marginal(b, result.purified, keep=0)
        np.testing.assert_allclose(
            b.state_object(got.coords, A), rho, atol=1e-10
        )


def test_real_quantum_states_purify(real_quantum):
    s = FixtureSampler(real_quantum, seed=2)
    rho = s.density_matrix(2)
    result = purify_state(real_quantum, as_state(real_quantum, rho, A))
    assert result.verdict == "Purified"
    assert result.marginal_error < 1e-10


def test_purification_of_pure_state_adds_trivial_wing(quantum):
    rho = np.array([[1.0, 0.0], [0.0, 0.0]])
    result = purify_state(quantum, as_state(quantum, rho, A))
    assert result.verdict == "Purified"
    assert quantum.hilbert_dim(result.purifying_system) == 1


def classical_simplex_grid(d, steps):
    """All probability vectors on a {0, 1/steps, ..., 1} grid."""
    for raw in itertools.product(range(steps + 1), repeat=d):
        if sum(raw) == steps:
            yield np.array(raw, dtype=float) / steps


@pytest.mark.parametrize("d", [1, 2, 3])
def test_classical_purification_exactly_on_point_masses(d):
    """Grid-exhaustive check: a pure extension exists iff one support point."""
    b = get_backend("classical", {"A": d})
    word = SystemType.of("A")
    for v in classical_simplex_grid(d, steps=4):
        result = purify_state(b, as_state(b, v, word))
        if np.count_nonzero(v) <= 1:
            assert result.verdict == "Purified"
            assert result.marginal_error < 1e-12
        else:
            assert result.verdict == "Failure"
            assert result.witness is not None
            assert "summands" in result.witness


# -- essential uniqueness ----------------------------------------------------


def purify_pair(backend, rho, seed):
    """Two purifications with the same wing: canonical and unitarily stirred."""
    base = purify_state(backend, as_state(backend, rho, A))
    assert base.verdict == "Purified"
    wing = base.purifying_system
    r = backend.hilbert_dim(wing)
    s = FixtureSampler(backend, seed=seed)
    stir = s.unitary_channel(wing)
    ident = Channel(A, A, backend.kernel_identity(A))
    kernel = backend.kernel_par(ident, stir)
    psi2_kernel = kernel @ backend.state_channel(
        backend.state_object(base.purified.coords, A * wing), A * wing
    ).kernel
    psi2 = backend.channel_state(Channel(UNIT, A * wing, psi2_kernel))
    return base.purified, psi2, wing


def test_purifications_connected_on_the_wing(quantum):
    s = FixtureSampler(quantum, seed=31)
    rho = s.density_matrix(2)
    psi1, psi2, wing = purify_pair(quantum, rho, seed=8)
    report = purification_uniqueness(quantum, psi1, psi2, A)
    assert report.verdict == "Connected"
    assert report.replay_error < 1e-9


def test_uniqueness_rejects_mismatched_marginals(quantum):
    s = FixtureSampler(quantum, seed=33)
    r1 = purify_state(quantum, as_state(quantum, s.density_matrix(2), A))
    r2 = purify_state(quantum, as_state(quantum, s.density_matrix(2), A))
    with pytest.raises(MarginalMismatchError):
        purification_uniqueness(quantum, r1.purified, r2.purified, A)


def test_classical_point_mass_purifications_connected():
    b = get_backend("classical", {"A": 3})
    v = np.array([0.0, 1.0, 0.0])
    r = purify_state(b, as_state(b, v, A))
    report = purification_uniqueness(b, r.purified, r.purified, A)
    assert report.verdict == "Connected"
    assert report.replay_error < 1e-12


# -- steering ----------------------------------------------------------------


def steering_setup(backend, seed, k):
    parts = FixtureSampler(backend, seed=seed).preparation_branches(A, k)
    return parts, purify_state(backend, as_state(backend, sum(parts), A))


def test_steering_reproduces_the_ensemble(quantum):
    parts, purif = steering_setup(quantum, seed=41, k=3)
    branches = [as_state(quantum, p, A) for p in parts]
    out = steering_measurement(quantum, branches, purif.purified, A)
    assert out.completeness_residual < 1e-12
    assert max(out.branch_errors) < 1e-9


def test_steering_multiple_sizes(quantum):
    for k in (2, 3, 4):
        parts, purif = steering_setup(quantum, seed=50 + k, k=k)
        branches = [as_state(quantum, p, A) for p in parts]
        out = steering_measurement(quantum, branches, purif.purified, A)
        assert out.completeness_residual < 1e-12
        assert max(out.branch_errors) < 1e-9
        assert len(out.effects) == k


@pytest.mark.parametrize("theory", ["quantum", "quantum-real"])
def test_steering_reproduces_a_generic_ensemble(theory):
    """A drawn preparation's branches need not commute, and steering from
    the purification still recovers each of them."""
    b = get_backend(theory, {"B": 3})
    for seed in range(5):
        parts = FixtureSampler(b, seed=seed).preparation_branches(B, 3)
        assert np.abs(parts[0] @ parts[1] - parts[1] @ parts[0]).max() > 1e-6
        purif = purify_state(b, as_state(b, sum(parts), B))
        out = steering_measurement(b, [as_state(b, p, B) for p in parts], purif.purified, B)
        assert out.completeness_residual < 1e-12
        assert max(out.branch_errors) < 1e-9


def test_steering_labels_and_completion(quantum):
    parts, purif = steering_setup(quantum, seed=61, k=2)
    branches = [as_state(quantum, p, A) for p in parts]
    out = steering_measurement(quantum, branches, purif.purified, A,
                               labels=["x", "y"])
    assert out.labels == ("x", "y")
    assert out.completion_label in ("x", "y")


def test_steering_rejects_wrong_ensemble(quantum):
    s = FixtureSampler(quantum, seed=71)
    rho = s.density_matrix(2)
    purif = purify_state(quantum, as_state(quantum, rho, A))
    bad = [as_state(quantum, np.eye(2) / 2, A)]  # sums to I/2, not rho
    with pytest.raises(BranchSumMismatchError):
        steering_measurement(quantum, bad, purif.purified, A)


def test_classical_steering_on_point_mass():
    b = get_backend("classical", {"A": 2})
    v = np.array([1.0, 0.0])
    purif = purify_state(b, as_state(b, v, A))
    halves = [as_state(b, v * 0.5, A), as_state(b, v * 0.5, A)]
    out = steering_measurement(b, halves, purif.purified, A)
    assert out.completeness_residual < 1e-12
    assert max(out.branch_errors) < 1e-12


# -- the same audits on real amplitudes -----------------------------------------
# each runs the quantum test's body on the real-amplitude theory, whose
# uniqueness and steering constructions keep only the real part of their
# matrices


def test_purifications_connected_on_the_wing_real_amplitudes(real_quantum):
    test_purifications_connected_on_the_wing(real_quantum)


def test_uniqueness_rejects_mismatched_marginals_real_amplitudes(real_quantum):
    test_uniqueness_rejects_mismatched_marginals(real_quantum)


def test_steering_reproduces_the_ensemble_real_amplitudes(real_quantum):
    test_steering_reproduces_the_ensemble(real_quantum)


def test_steering_multiple_sizes_real_amplitudes(real_quantum):
    test_steering_multiple_sizes(real_quantum)


def test_steering_labels_and_completion_real_amplitudes(real_quantum):
    test_steering_labels_and_completion(real_quantum)


def test_steering_rejects_wrong_ensemble_real_amplitudes(real_quantum):
    test_steering_rejects_wrong_ensemble(real_quantum)
