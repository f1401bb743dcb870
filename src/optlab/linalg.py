"""Dense linear-algebra helpers shared by the theory backends.

Conventions used throughout the package (documented once, here):

* ``vec(X)`` is row-major (C-order) stacking, so ``vec(A X B) = (A kron B^T) vec(X)``.
* A map ``M`` between matrix spaces has the *process matrix* ``N``
  ("Liouville form") with ``vec(M(X)) = N vec(X)``; shape ``(dout**2, din**2)``.
  On a word of several wires, Liouville order runs over every wire's row
  index, then every wire's column index.  Kernels rest in *wire-major*
  order instead: each wire's (row, column) pair is one block, the blocks in
  wire order, so the kernel of maps side by side is their Kronecker product.
  Liouville order is the form at the payload and Choi boundary (these
  helpers, payload compilation, certification, ``channel_choi``); the two
  orders agree on one wire.
* The Choi matrix of ``M`` puts the input factor first and is unnormalized:
  ``J = sum_ij E_ij kron M(E_ij)``, shape ``(din*dout, din*dout)``; a
  trace-preserving map has ``Tr_out J = I_in`` and ``Tr J = din``.
* Operator bases are Hilbert-Schmidt orthonormal and canonically ordered:
  normalized identity, then the diagonal traceless elements, then for each
  index pair (j < k, lexicographic) the symmetric element and — in the
  Hermitian case — the antisymmetric element.
* Eigen-decompositions used to construct canonical objects sort eigenvalues
  in descending order and fix each eigenvector's phase by making its first
  component of magnitude above cutoff real and positive.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "diagonal_basis",
    "hermitian_basis",
    "liouville_from_choi",
    "choi_from_liouville",
    "kraus_to_liouville",
    "partial_trace",
    "sorted_eigh",
    "rank_with_cutoff",
    "canonical_phase",
    "canonical_phases",
    "procrustes_unitary",
]

#: Relative eigenvalue cutoff below which spectra are treated as zero rank.
RANK_CUTOFF = 1e-9


# ---------------------------------------------------------------------------
# operator bases
# ---------------------------------------------------------------------------


def diagonal_basis(d: int) -> np.ndarray:
    """The diagonals of the first d members of ``hermitian_basis`` and of the
    real symmetric basis, one member per column: I/sqrt(d), then the diagonal
    traceless elements."""
    out = np.triu(np.ones((d, d)), 1) - np.diag(np.arange(d))  # ones, then -l, in column l
    out[:, 1:] /= np.sqrt(np.arange(1, d) * np.arange(2, d + 1))
    out[:, 0] = 1.0 / np.sqrt(d)
    return out


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of d x d Hermitian matrices, shape (d*d, d, d).

    Order: I/sqrt(d); diagonal traceless elements; then per (j, k) pair the
    real symmetric element followed by the imaginary antisymmetric one.
    """
    elems = [np.diag(c).astype(complex) for c in diagonal_basis(d).T]
    for j in range(d):
        for k in range(j + 1, d):
            x = np.zeros((d, d), dtype=complex)
            x[j, k] = x[k, j] = 1.0 / np.sqrt(2.0)
            elems.append(x)
            y = np.zeros((d, d), dtype=complex)
            y[j, k] = -1j / np.sqrt(2.0)
            y[k, j] = 1j / np.sqrt(2.0)
            elems.append(y)
    return np.stack(elems)


# ---------------------------------------------------------------------------
# vec / Choi / Liouville
# ---------------------------------------------------------------------------


def liouville_from_choi(choi: np.ndarray, din: int, dout: int) -> np.ndarray:
    """J[(i,k),(j,l)] = M(E_ij)[k,l]  ->  N[(k,l),(i,j)]; leading axes are a stack."""
    choi = np.asarray(choi)
    lead = choi.shape[:-2]
    n = len(lead)
    j4 = choi.reshape(*lead, din, dout, din, dout)
    return j4.transpose(*range(n), n + 1, n + 3, n, n + 2).reshape(*lead, dout * dout, din * din)


def choi_from_liouville(lio: np.ndarray, din: int, dout: int) -> np.ndarray:
    """The inverse of ``liouville_from_choi``; leading axes are a stack."""
    lio = np.asarray(lio)
    lead = lio.shape[:-2]
    n = len(lead)
    n4 = lio.reshape(*lead, dout, dout, din, din)
    return n4.transpose(*range(n), n + 2, n, n + 3, n + 1).reshape(*lead, din * dout, din * dout)


def kraus_to_liouville(kraus: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """``sum_k kron(K_k, conj(K_k))`` of Kraus operators ``(terms, dout, din)``,
    or of each of a stack ``(count, terms, dout, din)``: every term's product
    in one expression, the terms summed in order, from zero."""
    ks = np.asarray(kraus)
    *lead, terms, dout, din = ks.shape
    products = (ks[..., :, None, :, None] * ks.conj()[..., None, :, None, :]).reshape(
        *lead, terms, dout * dout, din * din)
    n = np.zeros((*lead, dout * dout, din * din), dtype=complex)
    for t in range(terms):
        n += products[..., t, :, :]
    return n


# ---------------------------------------------------------------------------
# wire plumbing
# ---------------------------------------------------------------------------


def partial_trace(rho: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep`` (indices in word
    order), of a matrix or of each of a stack of them."""
    k = len(dims)
    keep = sorted(keep)
    rho = np.asarray(rho)
    lead = rho.shape[:-2]
    t = rho.reshape(*lead, *dims, *dims)
    # row axis i gets subscript i; column axis i reuses subscript i when traced
    in_subs = list(range(k)) + [i + k if i in keep else i for i in range(k)]
    out_subs = list(keep) + [i + k for i in keep]
    result = np.einsum(t, [..., *in_subs], [..., *out_subs])
    d = math.prod(dims[i] for i in keep)
    return result.reshape(*lead, d, d)


# ---------------------------------------------------------------------------
# canonical decompositions
# ---------------------------------------------------------------------------


def sorted_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition, eigenvalues descending, phases canonical;
    of a matrix or of each of a stack of them."""
    m = np.asarray(m)
    shape = m.shape
    vals, vecs = np.linalg.eigh(m.reshape(-1, *shape[-2:]))
    rows, cols = np.arange(len(vals))[:, None], np.arange(shape[-1])
    order = np.argsort(vals, axis=-1)[:, ::-1]
    vecs = canonical_phases(vecs[rows[:, :, None], cols[:, None], order[:, None, :]])
    return vals[rows, order].reshape(shape[:-1]), vecs.reshape(shape)


def rank_with_cutoff(eigvals: np.ndarray):
    """The number of eigenvalues above ``RANK_CUTOFF`` times the largest (0 when
    none is positive); an integer array for a stack of spectra."""
    top = np.maximum.reduce(eigvals, axis=-1, initial=0.0)  # where it is 0, no eigenvalue exceeds it
    ranks = np.add.reduce(eigvals > RANK_CUTOFF * top[..., None], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its first sizable entry is real positive."""
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return v
    idx = np.flatnonzero(np.abs(v) > 1e-12 * norm)
    if idx.size == 0:
        return v
    pivot = v[idx[0]]
    return v * (np.abs(pivot) / pivot)


def canonical_phases(vecs: np.ndarray) -> np.ndarray:
    """``canonical_phase`` of every column of a stack of matrices ``(count,
    n, d)``, each column of unit norm (eigenvectors).

    The column norms are summed here, not by ``np.linalg.norm``, so they may
    differ from its in the last bits; a column with an entry that close to
    the sizable cut is rotated by ``canonical_phase`` itself, so each column
    gets, bit for bit, the pivot and the phase that function gives it."""
    mag = np.abs(vecs)
    cut = 1e-12 * np.sqrt(np.add.reduce(mag * mag, axis=1))[:, None, :]
    first = (mag > cut).argmax(axis=1)
    pivot = vecs[np.arange(len(vecs))[:, None], first, np.arange(vecs.shape[-1])][:, None, :]
    out = vecs * (np.abs(pivot) / pivot)
    near = np.abs(mag - cut) <= 1e-9 * cut
    if np.count_nonzero(near):
        for i, j in zip(*np.nonzero(np.logical_or.reduce(near, axis=1))):
            out[i, :, j] = canonical_phase(vecs[i, :, j])
    return out


def procrustes_unitary(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unitary W minimizing ||W a - b||_F, via the polar factor of b a^dagger."""
    p, _, qh = np.linalg.svd(b @ a.conj().T)
    return p @ qh
