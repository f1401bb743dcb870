"""Pure states and transformations, and reversible maps between pure states.

The backend purity checks are rank/support characterizations.  To make sure
they decide the right predicate, a brute-force oracle searches for actual
two-term decompositions over a parameter grid at carrier dimension 2 and the
verdicts are compared.
"""

import itertools

import numpy as np
import pytest

from optlab import Channel, SystemType, get_backend
from optlab.audit import is_pure_state, is_pure_transformation
from fixture_sampler import FixtureSampler

A = SystemType.of("A")


# -- brute-force decomposition oracle (dimension 2) -------------------------


def _psd(m, tol=1e-11):
    return np.linalg.eigvalsh(m).min() > -tol


def grid_decomposable_quantum(rho, with_phases, steps=9):
    """Search rho = sigma + tau, both PSD and nonzero, sigma not ~ rho."""
    tr = float(np.trace(rho).real)
    directions = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    if with_phases:
        directions.append(np.array([[0, -1j], [1j, 0]]))
    eye = np.eye(2, dtype=complex)
    for t in np.linspace(0.15, 0.85, 5) * tr:
        for coeffs in itertools.product(np.linspace(-1, 1, steps),
                                        repeat=len(directions)):
            sigma = (t / 2) * (eye + sum(c * d for c, d in zip(coeffs, directions)))
            tau = rho - sigma
            if not (_psd(sigma) and _psd(tau)):
                continue
            if np.abs(tau).max() < 1e-9:
                continue
            if np.abs(sigma / t - rho / tr).max() < 1e-7:
                continue  # proportional refinement, allowed for pure states
            return True
    return False


def grid_decomposable_classical(v, steps=21):
    total = v.sum()
    grids = [np.linspace(0, v[i], steps) for i in range(len(v))]
    for parts in itertools.product(*grids):
        sigma = np.array(parts)
        t = sigma.sum()
        tau = v - sigma
        if t < 1e-9 or tau.sum() < 1e-9:
            continue
        if np.abs(sigma / t - v / total).max() < 1e-7:
            continue
        return True
    return False


QUBIT_CASES = [
    (np.array([[1.0, 0.0], [0.0, 0.0]]), True),
    (np.array([[0.5, 0.5], [0.5, 0.5]]), True),
    (np.eye(2) * 0.5, False),
    (np.array([[0.9, 0.0], [0.0, 0.1]]), False),
    (np.array([[0.625, 0.21650635094610965], [0.21650635094610965, 0.375]]),
     False),  # Bloch radius 1/2
]


@pytest.mark.parametrize("rho,expect_pure", QUBIT_CASES)
def test_quantum_purity_matches_grid_oracle(rho, expect_pure):
    b = get_backend("quantum", {"A": 2})
    report = is_pure_state(b, b.channel_state(b.state_channel(rho, A)))
    assert report.pure == expect_pure
    assert grid_decomposable_quantum(rho, with_phases=True) == (not expect_pure)


@pytest.mark.parametrize("rho,expect_pure", QUBIT_CASES)
def test_real_quantum_purity_matches_grid_oracle(rho, expect_pure):
    b = get_backend("quantum-real", {"A": 2})
    report = is_pure_state(b, b.channel_state(b.state_channel(rho, A)))
    assert report.pure == expect_pure
    assert grid_decomposable_quantum(rho, with_phases=False) == (not expect_pure)


CLASSICAL_CASES = [
    (np.array([1.0, 0.0]), True),
    (np.array([0.0, 1.0]), True),
    (np.array([0.5, 0.5]), False),
    (np.array([0.95, 0.05]), False),
]


@pytest.mark.parametrize("v,expect_pure", CLASSICAL_CASES)
def test_classical_purity_matches_grid_oracle(v, expect_pure):
    b = get_backend("classical", {"A": 2})
    report = is_pure_state(b, b.channel_state(b.state_channel(v, A)))
    assert report.pure == expect_pure
    assert grid_decomposable_classical(v) == (not expect_pure)


def test_mixed_state_witness_has_two_summands(backend):
    st = backend.uniform_state(A)
    report = is_pure_state(backend, st)
    assert not report.pure
    assert report.witness is not None and len(report.witness["summands"]) == 2
    total = sum(np.asarray(s, dtype=complex) for s in report.witness["summands"])
    obj = backend.state_object(st.coords, A)
    np.testing.assert_allclose(total, np.asarray(obj, dtype=complex), atol=1e-10)


# -- purity of transformations ----------------------------------------------


def test_unitary_channels_are_pure(quantum):
    s = FixtureSampler(quantum, seed=1)
    assert is_pure_transformation(quantum, s.unitary_channel(A)).pure


def test_depolarizing_is_not_pure(quantum):
    kernel = np.zeros((16, 16))
    ident = quantum.kernel_identity(A)
    scramble = quantum.trace_channel(A).kernel  # row vector
    uniform = quantum.state_channel(np.eye(2) / 2, A).kernel  # column
    ch = Channel(A, A, 0.5 * ident + 0.5 * (uniform @ scramble))
    report = is_pure_transformation(quantum, ch)
    assert not report.pure
    assert report.rank == 4


def test_classical_identity_is_not_pure(classical):
    """The bit-identity splits into which-way branches, so it is not atomic."""
    ch = Channel(A, A, classical.kernel_identity(A))
    report = is_pure_transformation(classical, ch)
    assert not report.pure


def test_classical_single_entry_matrix_is_pure(classical):
    ch = Channel(A, A, np.array([[0.0, 0.7], [0.0, 0.0]]))
    assert is_pure_transformation(classical, ch).pure


# -- pure states connected by a reversible map ---------------------------------


def _connect(backend, source, target):
    """The reversible channel ``pure_connection`` gives between two pure
    states, each the purification of the unit on the trivial system, and the
    largest entry of its replay error on ``source``."""
    u, marginal_error = backend.pure_connection(
        backend.state_object(source.coords, A), backend.state_object(target.coords, A),
        1, backend.hilbert_dim(A),
    )
    assert marginal_error < 1e-12
    ch = backend.conjugation_channel(u, A)
    replay = ch.kernel @ backend.state_as_channel(source).kernel - backend.state_as_channel(target).kernel
    return u, ch, float(np.max(np.abs(replay)))


def test_pure_states_connected_by_reversible(quantum):
    psi = np.array([1.0, 0.0])
    phi = np.array([1.0, 1.0]) / np.sqrt(2)
    source = quantum.channel_state(quantum.state_channel(np.outer(psi, psi), A))
    target = quantum.channel_state(quantum.state_channel(np.outer(phi, phi), A))
    u, ch, replay = _connect(quantum, source, target)
    assert replay < 1e-10
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    assert quantum.certify_channel(ch).physical


def test_classical_point_masses_connected_by_permutation(classical):
    source = classical.channel_state(classical.state_channel(np.array([1.0, 0.0]), A))
    target = classical.channel_state(classical.state_channel(np.array([0.0, 1.0]), A))
    _, ch, replay = _connect(classical, source, target)
    assert replay < 1e-12
    np.testing.assert_allclose(ch.kernel, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
