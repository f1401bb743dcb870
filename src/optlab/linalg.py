"""Dense linear-algebra helpers shared by the theory backends.

Conventions used throughout the package (documented once, here):

* ``vec`` is row-major (C-order) stacking, so ``vec(A X B) = (A kron B^T) vec(X)``.
* A map ``M`` between matrix spaces is stored as its *process matrix* ``N``
  ("Liouville form") with ``vec(M(X)) = N vec(X)``; shape ``(dout**2, din**2)``.
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

import numpy as np

__all__ = [
    "hermitian_basis",
    "symmetric_basis",
    "kron_basis",
    "vec",
    "liouville_from_choi",
    "choi_from_liouville",
    "kraus_to_liouville",
    "partial_trace",
    "swap_unitary",
    "sorted_eigh",
    "rank_with_cutoff",
    "canonical_phase",
    "procrustes_unitary",
]

#: Relative eigenvalue cutoff below which spectra are treated as zero rank.
RANK_CUTOFF = 1e-9


# ---------------------------------------------------------------------------
# operator bases
# ---------------------------------------------------------------------------


def _diagonal_elements(d: int) -> list[np.ndarray]:
    out = []
    for level in range(1, d):
        m = np.zeros((d, d))
        m[np.arange(level), np.arange(level)] = 1.0
        m[level, level] = -level
        out.append(m / np.sqrt(level * (level + 1)))
    return out


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of d x d Hermitian matrices, shape (d*d, d, d).

    Order: I/sqrt(d); diagonal traceless elements; then per (j, k) pair the
    real symmetric element followed by the imaginary antisymmetric one.
    """
    elems: list[np.ndarray] = [np.eye(d, dtype=complex) / np.sqrt(d)]
    elems.extend(m.astype(complex) for m in _diagonal_elements(d))
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


def symmetric_basis(d: int) -> np.ndarray:
    """Orthonormal basis of d x d real symmetric matrices, shape (d(d+1)/2, d, d)."""
    elems: list[np.ndarray] = [np.eye(d) / np.sqrt(d)]
    elems.extend(_diagonal_elements(d))
    for j in range(d):
        for k in range(j + 1, d):
            x = np.zeros((d, d))
            x[j, k] = x[k, j] = 1.0 / np.sqrt(2.0)
            elems.append(x)
    return np.stack(elems)


def kron_basis(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Elementwise Kronecker of two basis stacks, left index slowest."""
    n1, d1, _ = left.shape
    n2, d2, _ = right.shape
    prod = np.einsum("aij,bkl->abikjl", left, right)
    return prod.reshape(n1 * n2, d1 * d2, d1 * d2)


# ---------------------------------------------------------------------------
# vec / Choi / Liouville
# ---------------------------------------------------------------------------


def vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).reshape(-1)


def liouville_from_choi(choi: np.ndarray, din: int, dout: int) -> np.ndarray:
    """J[(i,k),(j,l)] = M(E_ij)[k,l]  ->  N[(k,l),(i,j)]; leading axes are a stack."""
    choi = np.asarray(choi)
    lead = choi.shape[:-2]
    n = len(lead)
    j4 = choi.reshape(*lead, din, dout, din, dout)
    return j4.transpose(*range(n), n + 1, n + 3, n, n + 2).reshape(*lead, dout * dout, din * din)


def choi_from_liouville(lio: np.ndarray, din: int, dout: int) -> np.ndarray:
    n4 = np.asarray(lio).reshape(dout, dout, din, din)
    return n4.transpose(2, 0, 3, 1).reshape(din * dout, din * dout)


def kraus_to_liouville(kraus: list[np.ndarray] | np.ndarray) -> np.ndarray:
    ks = [np.asarray(k) for k in kraus]
    dout, din = ks[0].shape
    n = np.zeros((dout * dout, din * din), dtype=complex)
    for k in ks:
        n += np.kron(k, k.conj())
    return n


# ---------------------------------------------------------------------------
# wire plumbing
# ---------------------------------------------------------------------------


def swap_unitary(d1: int, d2: int) -> np.ndarray:
    """Permutation matrix sending |a>|b> to |b>|a>, shape (d2*d1, d1*d2)."""
    s = np.zeros((d2 * d1, d1 * d2))
    for a in range(d1):
        for b in range(d2):
            s[b * d1 + a, a * d2 + b] = 1.0
    return s


def partial_trace(rho: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep`` (indices in word order)."""
    k = len(dims)
    keep = sorted(keep)
    t = np.asarray(rho).reshape(list(dims) * 2)
    # row axis i gets subscript i; column axis i reuses subscript i when traced
    in_subs = list(range(k)) + [i + k if i in keep else i for i in range(k)]
    out_subs = list(keep) + [i + k for i in keep]
    result = np.einsum(t, in_subs, out_subs)
    d = int(np.prod([dims[i] for i in keep])) if keep else 1
    return result.reshape(d, d)


# ---------------------------------------------------------------------------
# canonical decompositions
# ---------------------------------------------------------------------------


def sorted_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition, eigenvalues descending, phases canonical."""
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    for i in range(vecs.shape[1]):
        vecs[:, i] = canonical_phase(vecs[:, i])
    return vals, vecs


def rank_with_cutoff(eigvals: np.ndarray) -> int:
    top = float(np.max(eigvals, initial=0.0))
    if top <= 0.0:
        return 0
    return int(np.sum(eigvals > RANK_CUTOFF * top))


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


def procrustes_unitary(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unitary W minimizing ||W a - b||_F, via the polar factor of b a^dagger."""
    p, _, qh = np.linalg.svd(b @ a.conj().T)
    return p @ qh
