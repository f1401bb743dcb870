"""Conventions of the shared matrix toolbox, pinned by small oracles."""

import numpy as np
import pytest

from optlab import get_backend
from optlab import linalg as la

rng = np.random.default_rng(7)


def random_complex(shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# -- vectorization convention ----------------------------------------------


def test_vec_is_row_major():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(la.vec(m), [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(la.vec(m).reshape(2, 2), m)


def test_vec_sandwich_identity():
    """vec(A X B) = (A (x) B^T) vec(X) under row-major stacking."""
    a = random_complex((3, 2))
    x = random_complex((2, 4))
    b = random_complex((4, 3))
    lhs = la.vec(a @ x @ b)
    rhs = np.kron(a, b.T) @ la.vec(x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_liouville_matches_conjugation():
    u = random_complex((3, 3))
    n = np.kron(u, u.conj())
    x = random_complex((3, 3))
    np.testing.assert_allclose((n @ la.vec(x)).reshape(3, 3),
                               u @ x @ u.conj().T, atol=1e-12)


# -- operator bases ---------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_basis_orthonormal(d):
    basis = la.hermitian_basis(d)
    assert len(basis) == d * d
    np.testing.assert_allclose(basis[0], np.eye(d) / np.sqrt(d), atol=1e-15)
    gram = np.array([[np.trace(x.conj().T @ y) for y in basis] for x in basis])
    np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-12)
    for b in basis:
        np.testing.assert_allclose(b, b.conj().T, atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_symmetric_basis_orthonormal(d):
    basis = la.symmetric_basis(d)
    assert len(basis) == d * (d + 1) // 2
    gram = np.array([[np.trace(x.T @ y) for y in basis] for x in basis])
    np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-12)
    for b in basis:
        assert b.dtype.kind == "f"
        np.testing.assert_allclose(b, b.T, atol=1e-15)


# -- eigen-decomposition, canonically --------------------------------------


def test_sorted_eigh_descending_with_fixed_phase():
    h = random_complex((4, 4))
    h = h + h.conj().T
    vals, vecs = la.sorted_eigh(h)
    assert all(vals[i] >= vals[i + 1] for i in range(3))
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, h,
                               atol=1e-12)
    for k in range(4):
        col = vecs[:, k]
        lead = col[np.argmax(np.abs(col) > 1e-9)]
        assert lead.real > 0 and abs(lead.imag) < 1e-12


def test_canonical_phase_first_entry_real_positive():
    v = np.array([0.0, -1j, 1.0]) / np.sqrt(2)
    w = la.canonical_phase(v)
    lead = w[np.argmax(np.abs(w) > 1e-9)]
    assert lead.real > 0 and abs(lead.imag) < 1e-12
    assert abs(abs(np.vdot(v, w)) - 1.0) < 1e-12


def test_rank_with_cutoff_is_relative():
    assert la.rank_with_cutoff(np.array([1.0, 1e-12, 0.0])) == 1
    assert la.rank_with_cutoff(np.array([1.0, 1e-6])) == 2
    assert la.rank_with_cutoff(np.array([5.0, 5e-9 * 0.5])) == 1


# -- channel representations ------------------------------------------------


def test_transpose_channel_choi_is_swap():
    """The transpose map's correlation matrix is the flip operator.

    With input-first pairing the matrix works out to sum_ij E_ij (x) E_ji,
    which permutes the tensor factors; its spectrum is +1 on the symmetric
    subspace (dimension 3) and -1 on the antisymmetric one (dimension 1).
    """
    d = 2
    j = np.zeros((4, 4), dtype=complex)
    for i in range(d):
        for k in range(d):
            e = np.zeros((d, d))
            e[i, k] = 1.0
            j += np.kron(e, e.T)
    vals, _ = la.sorted_eigh(j)
    np.testing.assert_allclose(vals, [1.0, 1.0, 1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(j, la.swap_unitary(2, 2), atol=1e-15)


def test_choi_liouville_round_trip():
    for din, dout in [(2, 2), (2, 3), (3, 2)]:
        n = random_complex((dout * dout, din * din))
        j = la.choi_from_liouville(n, din, dout)
        back = la.liouville_from_choi(j, din, dout)
        np.testing.assert_allclose(back, n, atol=1e-12)


def test_kraus_choi_and_liouville_agree():
    ks = [random_complex((3, 2)) for _ in range(2)]
    n = la.kraus_to_liouville(ks)
    j = la.choi_from_liouville(n, 2, 3)
    # J = sum_ij E_ij (x) M(E_ij), which is sum_k vec(K^T) vec(K^T)^dagger
    units = [np.outer(np.eye(2)[i], np.eye(2)[k]) for i in range(2) for k in range(2)]
    by_definition = sum(np.kron(e, sum(k @ e @ k.conj().T for k in ks)) for e in units)
    np.testing.assert_allclose(j, by_definition, atol=1e-12)
    rank_one = sum(np.outer(la.vec(k.T), la.vec(k.T).conj()) for k in ks)
    np.testing.assert_allclose(j, rank_one, atol=1e-12)
    x = random_complex((2, 2))
    direct = sum(k @ x @ k.conj().T for k in ks)
    np.testing.assert_allclose((n @ la.vec(x)).reshape(3, 3), direct, atol=1e-12)


def test_choi_amplitudes_reconstruct_action():
    """The amplitude columns of the Choi matrix, each reshaped ``(din, dout)``
    and transposed, are an operator-sum form of the map, one per Choi rank."""
    ks = [random_complex((2, 2)) * 0.5 for _ in range(3)]
    j = la.choi_from_liouville(la.kraus_to_liouville(ks), 2, 2)
    dec = get_backend("quantum", {"A": 2}).extremal_decomposition(j)
    recovered = [dec.amplitudes[:, c].reshape(2, 2).T for c in range(dec.rank)]
    assert dec.rank == la.rank_with_cutoff(np.linalg.eigvalsh(j)) == 3
    x = random_complex((2, 2))
    np.testing.assert_allclose(
        sum(k @ x @ k.conj().T for k in recovered),
        sum(k @ x @ k.conj().T for k in ks),
        atol=1e-12,
    )


def test_partial_trace_bell_marginal():
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    np.testing.assert_allclose(la.partial_trace(bell, [2, 2], keep=[0]),
                               np.eye(2) / 2, atol=1e-15)
    np.testing.assert_allclose(la.partial_trace(bell, [2, 2], keep=[1]),
                               np.eye(2) / 2, atol=1e-15)


def test_partial_trace_of_product():
    a = random_complex((2, 2))
    a = a @ a.conj().T
    b = random_complex((3, 3))
    b = b @ b.conj().T
    joint = np.kron(a, b)
    np.testing.assert_allclose(la.partial_trace(joint, [2, 3], keep=[0]),
                               a * np.trace(b), atol=1e-12)
    np.testing.assert_allclose(la.partial_trace(joint, [2, 3], keep=[1]),
                               b * np.trace(a), atol=1e-12)


# -- unitary utilities -------------------------------------------------------


def test_swap_unitary_exchanges_factors():
    s = la.swap_unitary(2, 3)
    x = random_complex(2)
    y = random_complex(3)
    np.testing.assert_allclose(s @ np.kron(x, y), np.kron(y, x), atol=1e-15)


def test_procrustes_unitary_recovers_rotation():
    a = random_complex((4, 3))
    u0, _ = np.linalg.qr(random_complex((4, 4)))
    b = u0 @ a
    u = la.procrustes_unitary(a, b)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(u @ a, b, atol=1e-10)
