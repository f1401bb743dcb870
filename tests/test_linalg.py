"""Conventions of the shared matrix toolbox, pinned by small oracles."""

import numpy as np
import pytest

from optlab import get_backend
from optlab import linalg as la

rng = np.random.default_rng(7)


def random_complex(shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# -- references: conventions the package follows without a helper of its own ----


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major (C-order) stacking."""
    return np.asarray(m).reshape(-1)


def symmetric_basis(d: int) -> np.ndarray:
    """Orthonormal basis of d x d real symmetric matrices, shape (d(d+1)/2, d, d),
    in the canonical order of ``la.hermitian_basis`` without its antisymmetric
    members."""
    elems = [np.diag(c) for c in la.diagonal_basis(d).T]
    for j in range(d):
        for k in range(j + 1, d):
            x = np.zeros((d, d))
            x[j, k] = x[k, j] = 1.0 / np.sqrt(2.0)
            elems.append(x)
    return np.stack(elems)


def swap_unitary(d1: int, d2: int) -> np.ndarray:
    """Permutation matrix sending |a>|b> to |b>|a>, shape (d2*d1, d1*d2)."""
    s = np.zeros((d2 * d1, d1 * d2))
    for a in range(d1):
        for b in range(d2):
            s[b * d1 + a, a * d2 + b] = 1.0
    return s


# -- vectorization convention ----------------------------------------------


def test_vec_is_row_major():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(vec(m), [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(vec(m).reshape(2, 2), m)


def test_vec_sandwich_identity():
    """vec(A X B) = (A (x) B^T) vec(X) under row-major stacking."""
    a = random_complex((3, 2))
    x = random_complex((2, 4))
    b = random_complex((4, 3))
    lhs = vec(a @ x @ b)
    rhs = np.kron(a, b.T) @ vec(x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_liouville_matches_conjugation():
    u = random_complex((3, 3))
    n = np.kron(u, u.conj())
    x = random_complex((3, 3))
    np.testing.assert_allclose((n @ vec(x)).reshape(3, 3),
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
    basis = symmetric_basis(d)
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


def test_canonical_phases_of_a_stack_match_one_column_at_a_time():
    """A column whose first entry sits at the sizable cut of one norm and
    above the cut of a norm summed in another order still gets the pivot
    ``canonical_phase`` gives it, and so do real columns."""
    cols = []
    while len(cols) < 3:
        v = random_complex(5)
        v[0] = 0.0  # an entry at the cut leaves both norms as they are
        v /= np.linalg.norm(v)
        one, summed = np.linalg.norm(v), np.sqrt(np.sum(np.abs(v) ** 2))
        if 1e-12 * one != 1e-12 * summed:
            v[0] = 1e-12 * max(one, summed)
            cols.append(v)
    stack = np.stack(cols, axis=1)[None]
    got = la.canonical_phases(stack)
    for k in range(stack.shape[-1]):
        np.testing.assert_array_equal(got[0, :, k], la.canonical_phase(stack[0, :, k]), strict=True)
    real = rng.normal(size=(2, 3, 4))
    for i, k in np.ndindex(2, 4):
        np.testing.assert_array_equal(la.canonical_phases(real)[i, :, k], la.canonical_phase(real[i, :, k]))


def test_stacked_decompositions_are_the_one_matrix_forms():
    h = random_complex((5, 4, 4))
    h = h + h.conj().swapaxes(-1, -2)
    h[0] = np.diag([2.0, 1.0, 1.0, 0.0])  # repeated and zero eigenvalues
    vals, vecs = la.sorted_eigh(h)
    for i in range(5):
        one_vals, one_vecs = la.sorted_eigh(h[i])
        np.testing.assert_array_equal(vals[i], one_vals, strict=True)
        np.testing.assert_array_equal(vecs[i], one_vecs, strict=True)
        assert la.rank_with_cutoff(vals)[i] == la.rank_with_cutoff(vals[i])
        np.testing.assert_array_equal(la.partial_trace(h, [2, 2], [1])[i], la.partial_trace(h[i], [2, 2], [1]))


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
    np.testing.assert_allclose(j, swap_unitary(2, 2), atol=1e-15)


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
    rank_one = sum(np.outer(vec(k.T), vec(k.T).conj()) for k in ks)
    np.testing.assert_allclose(j, rank_one, atol=1e-12)
    x = random_complex((2, 2))
    direct = sum(k @ x @ k.conj().T for k in ks)
    np.testing.assert_allclose((n @ vec(x)).reshape(3, 3), direct, atol=1e-12)


def test_kraus_terms_are_summed_in_order_from_zero_alone_and_stacked():
    """Bit for bit ``sum(kron(K, conj(K)))`` over the terms in Kraus order,
    from zero; a stack of operator lists gives each list's sum."""
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(5, 4, 3, 2)) + 1j * rng.normal(size=(5, 4, 3, 2))
    stack[0, 0, 0, 0] = -0.0  # a sum from zero keeps no -0.0
    stacked = la.kraus_to_liouville(stack)
    for ks, got in zip(stack, stacked):
        want = sum((np.kron(k, k.conj()) for k in ks), np.zeros((9, 4), dtype=complex))
        assert np.array_equal(la.kraus_to_liouville(list(ks)), want)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


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
    s = swap_unitary(2, 3)
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
