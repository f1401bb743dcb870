"""Quantum backends: complex amplitudes and the real-amplitude variant.

States on a word with composite carrier dimension D are self-adjoint D x D
matrices expanded over a fixed orthonormal operator basis W; transformations
are completely positive trace-non-increasing maps, compiled from Choi or
Kraus payloads to process-matrix kernels.

Each theory writes one coordinate map, ``_coords(t, word, side)``: on a stack
``(count, K, cols)`` of operator vectors along axis 1, wire-major on
``word``, it gives ``W^H t`` (side 0) or ``W^T t`` (side 1), and ``W c`` from
coordinates (side 2), each item through products of its own.  Transfer
matrices, state coordinates and objects and the spanning family are written
once on top of it, and neither theory builds a basis of a whole word:

* complex amplitudes — the word's basis is the ordered Kronecker product of
  the per-primitive bases, each applied to its own block; coordinate
  dimensions multiply, and the spanning family is the Kronecker product of
  each system's family (local tomography);
* real amplitudes — states are real symmetric matrices, and the joint space
  of a pair outgrows the tensor product of the component ones (for two
  dimension-2 primitives: 10 vs 9), so the basis is the canonical symmetric
  basis of the joint carrier, applied entry by entry; the spanning family
  lives on the joint carrier too, and transfer matrices do *not* determine a
  transformation's action on joint systems; kernels do.
"""

from __future__ import annotations

from functools import cache, reduce

import numpy as np

from ..diagram import UNIT, SystemType
from ..errors import (
    BranchSumMismatchError,
    NotPhysicalError,
    OptlabError,
    UnsupportedBranchError,
)
from .. import linalg
from .base import (
    Channel,
    Extremal,
    PhysicalityCertificate,
    StateVector,
    TheoryBackend,
)

__all__ = ["QuantumBackend", "RealQuantumBackend"]

#: A Choi matrix with a larger entry is checked scaled down by a power of two.
SCALE_ABOVE = 2.0 ** 500

_EPS = np.finfo(float).eps

#: 1/sqrt(2) as ``linalg`` writes a basis entry (one ulp below ``np.sqrt(0.5)``).
SQRT_HALF = 1.0 / np.sqrt(2.0)


def _projector_family(d: int, with_phases: bool) -> np.ndarray:
    """Rank-one projectors spanning the self-adjoint matrices on dimension d.

    Stacked as shape (members, d, d): the basis kets, then per pair j < k
    the balanced superposition and (complex case) the quarter-phase one.
    All are valid states and valid effects.
    """
    kets = list(np.eye(d, dtype=complex))
    for j in range(d):
        for k in range(j + 1, d):
            for phase in (1.0, 1j) if with_phases else (1.0,):
                v = np.zeros(d, dtype=complex)
                v[j], v[k] = SQRT_HALF, phase * SQRT_HALF
                kets.append(v)
    kets = np.array(kets)
    return kets[:, :, None] * kets.conj()[:, None, :]


@cache
def _hermitian_maps(d: int) -> tuple[np.ndarray, ...]:
    """A system's flat Hermitian basis ``w`` (one column a member) as ``w^H``, ``w^T`` and ``w``."""
    w = linalg.hermitian_basis(d).reshape(d * d, -1).T
    return w.conj().T, w.T, w


@cache
def _symmetric_entries(d: int) -> tuple[np.ndarray, ...]:
    """On a d-level carrier, in Liouville order: the positions of the diagonal
    entries, then of each pair j < k's entries jk and kj; where each position's
    value sits among them; the diagonals of the first d basis members."""
    j, k = np.triu_indices(d, 1)
    gather = np.concatenate([np.arange(d) * (d + 1), np.stack([j * d + k, k * d + j], 1).ravel()])
    spread = np.concatenate([np.arange(d), np.repeat(np.arange(d, d + len(j)), 2)])[np.argsort(gather)]
    return gather, spread, linalg.diagonal_basis(d)


class _MatrixTheory(TheoryBackend):
    """Machinery shared by the complex and real quantum backends."""

    _complex_scalars: bool = True
    legs_per_wire = 2
    object_kind, map_kind = "dens", "kraus"

    # -- payload compilation -------------------------------------------

    def _coerce_stack(self, data, shape: tuple[int, ...], what: str):
        """``data``, a sequence of arrays of ``shape``, as one stack on the
        theory's scalars, and the error of each item with complex entries on
        the real theory; real data skip that item-by-item check."""
        arr = np.asarray(data, dtype=complex if self._complex_scalars else None)
        if arr.shape[1:] != shape:
            raise OptlabError(f"{what} has shape {arr.shape[1:]}, expected {shape}")
        faults = {}
        if np.iscomplexobj(arr) and not self._complex_scalars:
            imag = np.abs(arr.imag).max(axis=tuple(range(1, arr.ndim)), initial=0.0)
            for i in np.flatnonzero(imag > self.tol.algebra).tolist():
                faults[i] = NotPhysicalError(
                    PhysicalityCertificate(
                        physical=False,
                        role="payload",
                        reason="complex entries in a real-theory payload",
                        margin=float(imag[i]),
                        witness={"max_imaginary_part": float(imag[i])},
                    )
                )
            arr = arr.real
        return arr if self._complex_scalars else np.ascontiguousarray(arr, dtype=float), faults

    def _payload_kernels(self, kind, data, din, dout, role):
        if kind in ("vec", "dens"):  # states' or effects' matrices, or their kets
            if role == "box":
                raise OptlabError(f"{kind} payloads declare states or effects, not boxes")
            d = dout if role == "state" else din
            if kind == "vec":
                v, faults = self._coerce_stack(data, (d,), f"{role} vector")
                m = v[:, :, None] * v.conj()[:, None, :]
            else:
                m, faults = self._coerce_stack(data, (d, d), f"{role} matrix")
            # a state's matrix is its preparation's kernel column; an effect's conjugate is its row
            return (m.reshape(-1, d * d, 1) if role == "state" else m.reshape(-1, 1, d * d).conj()), faults
        if kind == "choi":
            choi, faults = self._coerce_stack(data, (din * dout, din * dout), "choi matrix")
            return self.project_scalars(linalg.liouville_from_choi(choi, din, dout)), faults
        if kind != "kraus":
            raise OptlabError(f"payload kind {kind!r} is not meaningful on backend {self.name!r}")
        # an item's Kraus matrices, or one matrix alone as its one term
        data = [d if isinstance(d, (list, tuple)) or np.ndim(d) > 2 else [d] for d in data]
        count, terms = len(data), len(data[0])
        if not terms:
            raise OptlabError("kraus payload needs at least one matrix")
        ks = np.asarray(data)
        ks, matrix_faults = self._coerce_stack(ks.reshape(count * terms, *ks.shape[2:]),
                                               (dout, din), "kraus matrix")
        faults = {}
        for i in sorted(matrix_faults):  # an item's first faulty matrix raises alone
            faults.setdefault(i // terms, matrix_faults[i])
        kernels = linalg.kraus_to_liouville(ks.reshape(count, terms, dout, din))
        return self.project_scalars(kernels), faults

    # -- physicality ----------------------------------------------------

    def channel_choi(self, ch: Channel) -> np.ndarray:
        din = self.hilbert_dim(ch.input_type)
        dout = self.hilbert_dim(ch.output_type)
        kernel = self._reorder(ch.kernel, ch.output_type, ch.input_type, inverse=True)
        return linalg.choi_from_liouville(kernel, din, dout)

    def check_kernels(self, kernels, din, dout):
        """Self-adjointness, then a positive Choi matrix, then a sub-normalized
        input marginal, each decided for the whole stack at once."""
        j = linalg.choi_from_liouville(kernels, din, dout)
        top = np.abs(j).max(axis=(-2, -1))
        guard = 64.0 * j.shape[-1] ** 3 * _EPS * top  # at the original scale; see below
        huge = top > SCALE_ABOVE
        scaled = huge.any()
        if scaled:
            # checked scaled by an exact power of two, so that j + j* and the eigen
            # solves stay finite; values are reported at the original scale
            peak = np.maximum(np.abs(j.real), np.abs(j.imag)).max(axis=(-2, -1))
            unscale = np.ones(len(j))
            unscale[huge] = np.ldexp(1.0, np.frexp(peak[huge])[1] - 1)
            scale = 1.0 / unscale
            j = j * scale[:, None, None]
            top = np.abs(j).max(axis=(-2, -1))
            identity = scale[:, None, None] * np.eye(din)
        else:  # a scale of one, which multiplies nothing
            scale, identity = 1.0, np.eye(din)

        def unscaled(x, at):
            """``x``, values of the kernels ``at``, at the original scale."""
            return x * unscale[at] if scaled else x

        jh = j.conj().swapaxes(-1, -2)
        residual = np.abs(j - jh).max(axis=(-2, -1))
        algebra, floor = self.tol.algebra, self.tol.eigenvalue_floor
        not_adjoint = residual > algebra * np.maximum(scale, top)
        sym = (j + jh) / 2.0
        # Tr_out J; over a one-dimensional output it is J itself, plus the zero an
        # einsum's sum starts from (which turns -0.0 into 0.0)
        reduced = j + 0.0 if dout == 1 else linalg.partial_trace(j, [din, dout], [0])
        slack = identity - reduced
        if din == 1:  # the eigenvalue of a 1 x 1 matrix is its (real) entry
            margin = np.real(slack)[:, 0, 0].copy()
        else:
            margin = np.linalg.eigvalsh((slack + slack.conj().swapaxes(-1, -2)) / 2.0)[:, 0]
        # The least Choi eigenvalue decides a kernel as eigh gives it, whose values
        # and eigenvector the certificate reports; eigvalsh, a third the cost on
        # 16 x 16 matrices, rounds differently.  Both reduce the n x n matrix A to
        # tridiagonal form by Householder reflections and solve that, eigvalsh
        # without eigenvectors and eigh with them; each returns the exact
        # eigenvalues of some A + E with |E|_2 <= c * n**2 * eps * |A|_2 for a
        # small constant c (LAPACK Users' Guide 4.7; Higham, Accuracy and
        # Stability of Numerical Algorithms, 19.3).  By Weyl's inequality no
        # eigenvalue moves by more than |E|_2, and |A|_2 <= n * max|a_ij| <=
        # n * top, so the two least eigenvalues differ by at most
        # 2 * c * n**3 * eps * top, a bound that scales with the matrix.  The
        # guard takes c = 32: a kernel whose eigvalsh minimum lies farther than
        # it from -floor gets the verdict eigh would give; one inside it is
        # decided by eigh.
        min_eig = np.linalg.eigvalsh(sym)[:, 0]
        if scaled:
            with np.errstate(over="ignore"):  # past the float range a value reads inf
                residual, min_eig, margin = residual * unscale, min_eig * unscale, margin * unscale
        near = np.abs(min_eig + floor) <= guard
        if near.any():
            min_eig[near] = unscaled(np.linalg.eigh(sym[near])[0][:, 0], near)
        negative, leaky = min_eig < -floor, margin < -floor

        def certificate(i: int, role: str) -> PhysicalityCertificate:
            res = float(residual[i])
            diagnostics = {"self_adjointness_residual": res}
            if not_adjoint[i]:
                return PhysicalityCertificate(
                    False, role, "not self-adjoint", res, {"residual": res}, diagnostics,
                )
            with np.errstate(over="ignore"):
                low = float(unscaled(np.linalg.eigh(sym[i])[0][0], i))
            diagnostics["min_choi_eigenvalue"] = low
            if negative[i]:
                vecs = linalg.sorted_eigh(sym[i])[1]
                return PhysicalityCertificate(
                    False, role, "negative eigenvalue", -low,
                    {"eigenvalue": low, "eigenvector": vecs[:, -1]}, diagnostics,
                )
            slack_low = float(margin[i])
            diagnostics["trace_condition_margin"] = slack_low
            if leaky[i]:
                return PhysicalityCertificate(
                    False, role, "trace condition", -slack_low,
                    {"eigenvalue": slack_low, "reduced_trace": unscaled(reduced[i], i)}, diagnostics,
                )
            return PhysicalityCertificate(True, role, None, 0.0, {}, diagnostics)

        return ~(not_adjoint | negative | leaky), certificate

    # -- coordinates ----------------------------------------------------

    def transfer_matrices(self, kernels, input_type, output_type):
        """``W_out^H K W_in``: the output's basis applied to the kernel's rows,
        then the input's to the transposed product's rows."""
        t = kernels
        for word, side in ((output_type, 0), (input_type, 1)):
            t = t if word.is_unit else self._coords(t, word, side)  # the unit's basis is [1]
            t = np.ascontiguousarray(t.swapaxes(-1, -2))
        return np.real(t)

    def state_coords(self, obj: np.ndarray, word: SystemType) -> np.ndarray:
        """``Tr(B obj)`` for each basis member ``B``, of an object or a stack."""
        obj = np.asarray(obj)
        coords = np.real(self._coords(self._reorder(obj.reshape(-1, obj.shape[-1] ** 2, 1), word, UNIT), word, 0))
        return np.ascontiguousarray(coords.reshape(*obj.shape[:-2], -1))

    def state_object(self, coords: np.ndarray, word: SystemType) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        vecs = self._coords(coords.reshape(-1, coords.shape[-1], 1), word, 2)
        d = self.hilbert_dim(word)
        m = self._reorder(vecs, word, UNIT, inverse=True).reshape(*coords.shape[:-1], d, d)
        return self.project_scalars(m)

    def spanning_states(self, word: SystemType) -> np.ndarray:
        """Coordinates of the projector family on the word's joint carrier.

        The real theory keeps this: products of component families do not
        span its joint space."""
        fam = _projector_family(self.hilbert_dim(word), self._complex_scalars)
        return self.state_coords(self.project_scalars(fam), word)

    def partial_trace(self, obj, dims, keep):
        return linalg.partial_trace(obj, dims, keep)

    def diagonal(self, p):
        return np.diag(np.asarray(p, dtype=float))

    # -- extremality: the spectrum of the density matrix or Choi matrix ---

    def extremal_decompositions(self, objs) -> list[Extremal]:
        vals, vecs = linalg.sorted_eigh(objs)
        ranks = linalg.rank_with_cutoff(vals)
        amplitudes = vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]
        heaviest = vals[:, :1, None] * (vecs[:, :, :1] * vecs[:, None, :, 0].conj())
        out = []
        for obj, spectrum, amps, rank, p0 in zip(objs, vals, amplitudes, ranks.tolist(), heaviest):
            weights = [float(v) for v in spectrum[:rank]]
            witness = {"summands": [p0, obj - p0], "spectrum": weights} if rank > 1 else None
            out.append(Extremal(rank, weights, witness, amps))
        return out

    def purifications(self, objs, decs):
        """The kets ``sum_i sqrt(w_i) v_i (x) e_i`` on a rank-sized wing."""
        r = decs[0].rank
        kets = np.array([dec.amplitudes[:, :r] for dec in decs]).reshape(len(decs), -1)
        return self.project_scalars(kets[:, :, None] * kets.conj()[:, None, :]), r

    def _pure_amplitudes(self, psi: np.ndarray, base_dim: int, ext_dim: int) -> np.ndarray:
        """The ket of a pure state object, as a ``base_dim x ext_dim`` matrix."""
        return self.extremal_decomposition(psi).amplitudes[:, 0].reshape(base_dim, ext_dim)

    def pure_connection(self, first, second, base_dim, ext_dim):
        m1, m2 = (self._pure_amplitudes(p, base_dim, ext_dim) for p in (first, second))
        marginal_error = float(np.max(np.abs(m1 @ m1.conj().T - m2 @ m2.conj().T)))
        return self.project_scalars(linalg.procrustes_unitary(m1.T, m2.T)), marginal_error

    def steering_effects(self, psi, branches, base_dim, ext_dim, labels, tol):
        m = self._pure_amplitudes(psi, base_dim, ext_dim)
        if float(np.max(np.abs(sum(branches) - m @ m.conj().T))) > self.tol.marginal:
            raise BranchSumMismatchError(
                "branch sum does not match the marginal of the pure extension"
            )
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        r = int(np.sum(s > linalg.RANK_CUTOFF * max(float(s[0]) if s.size else 0.0, 1e-300)))
        u, s, vh = u[:, :r], s[:r], vh[:r, :]
        proj = u @ u.conj().T
        sinv = np.diag(1.0 / s)
        effects = []
        for label, rho in zip(labels, branches):
            off = float(np.max(np.abs(rho - proj @ rho @ proj)))
            if off > tol:
                raise UnsupportedBranchError(
                    f"branch {label!r} puts weight {off:.3e} outside the support"
                )
            core = sinv @ u.conj().T @ rho @ u @ sinv
            effects.append(self.project_scalars((vh.conj().T @ core @ vh).T))
        return effects, self.project_scalars(np.eye(ext_dim) - (vh.conj().T @ vh).T)

    def faithful_probe(self, word: SystemType) -> StateVector:
        """The canonical pure extension of the uniform state."""
        rho = self.state_object(self.uniform_state(word).coords, word)
        psi, r = self.purification(rho, self.extremal_decomposition(rho))
        joint = word * self.scratch_system(r)
        return StateVector(self.state_coords(psi, joint), joint)

    # -- random draws ---------------------------------------------------

    def drawn_states(self, draws, word):
        """``g g* / Tr(g g*)`` for each Gaussian matrix ``g``."""
        rho = draws @ draws.conj().swapaxes(-1, -2)
        return self.state_coords(rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None], word)

    def random_channels(self, rng, input_word, output_word, count):
        din, dout = self.hilbert_dim(input_word), self.hilbert_dim(output_word)
        kernels = linalg.liouville_from_choi(self._tp_choi(rng, din, dout, count), din, dout)
        return self._reorder(kernels, output_word, input_word)

    def _tp_choi(self, rng, din: int, dout: int, count: int) -> np.ndarray:
        """``count`` random trace-preserving Choi matrices, stacked."""
        g = self.gaussian(rng, count, din * dout, din * dout)
        j0 = g @ g.conj().swapaxes(-1, -2)
        red = linalg.partial_trace(j0, [din, dout], [0])
        vals, vecs = np.linalg.eigh(red)
        rinv = (vecs * vals[:, None, :] ** -0.5) @ vecs.conj().swapaxes(-1, -2)
        scale = np.einsum("tij,kl->tikjl", rinv, np.eye(dout)).reshape(j0.shape)
        return self.project_scalars(scale @ j0 @ scale.conj().swapaxes(-1, -2))

    def drawn_povms(self, draws):
        """``c e c*`` for each ``e = g g*``, where ``c`` is the inverse square
        root of the sum of a test's ``e``."""
        raw = draws @ draws.conj().swapaxes(-1, -2)
        total = sum(raw[:, j] for j in range(raw.shape[1]))  # in outcome order, as one test's sum
        vals, vecs = np.linalg.eigh(total)
        scale = np.zeros(vecs.shape)  # a product with a diagonal matrix, as one test's form rounds it
        i = np.arange(vals.shape[-1])
        scale[:, i, i] = vals ** -0.5
        corr = (vecs @ scale @ vecs.conj().swapaxes(-1, -2))[:, None]
        return corr @ raw @ corr.conj().swapaxes(-1, -2)


class QuantumBackend(_MatrixTheory):
    """Complex-amplitude quantum theory.  Locally tomographic."""

    name = "quantum"
    _complex_scalars = True

    def project_scalars(self, x: np.ndarray) -> np.ndarray:
        return x

    def gaussian(self, rng, *shape):
        """Each matrix draws its real part, then its imaginary part, so a
        stack draws what one call per matrix would."""
        g = rng.normal(size=(*shape[:-2], 2, *shape[-2:]))
        return g[..., 0, :, :] + 1j * g[..., 1, :, :]

    def state_dim(self, word: SystemType) -> int:
        d = self.hilbert_dim(word)
        return d * d

    def spanning_states(self, word: SystemType) -> np.ndarray:
        """The Kronecker product of each system's family: products of local
        states span the joint space, and the basis is a product too."""
        rows = [_MatrixTheory.spanning_states(self, SystemType.of(label)) for label in word]
        return reduce(np.kron, rows, np.ones((1, 1)))

    def _coords(self, t, word, side):
        """Each system's basis applied to its own block of axis 1."""
        count, before = len(t), 1
        for d in self.word_dims(word):
            w = _hermitian_maps(d)[side]
            t = w @ t.reshape(count * before, w.shape[1], -1)
            before *= len(w)
        return t.reshape(count, before, -1)


class RealQuantumBackend(_MatrixTheory):
    """Real-amplitude quantum theory.

    Exists to exercise everything that goes wrong without local tomography:
    joint coordinate spaces outgrow products of component ones, and
    transformations are not pinned down by their local transfer matrices.
    """

    name = "quantum-real"
    _complex_scalars = False

    def __init__(self, systems=None) -> None:
        self._coordinate_cache: dict = {}
        super().__init__(systems)

    def state_dim(self, word: SystemType) -> int:
        d = self.hilbert_dim(word)
        return d * (d + 1) // 2

    def _coords(self, t, word, side):
        """The joint carrier's symmetric basis, entry by entry (``_symmetric_entries`` in
        wire-major order): its first D members are a D x D product on the D diagonal
        entries, and each later one is ``(x_jk + x_kj) / sqrt(2)`` for a pair j < k."""
        maps = self._coordinate_cache.get(word.word)
        if maps is None:
            gather, spread, block = _symmetric_entries(self.hilbert_dim(word))
            order, back = self._wire_orders(word)
            maps = self._coordinate_cache[word.word] = back[gather], spread[order], block
        gather, spread, block = maps
        d = len(block)
        # the diagonal block as einsum's plain sums of products, not a gemm's fused ones:
        # a state with a tiny eigenvalue magnifies those last bits in its purification
        if side == 2:
            vals = [np.einsum("ij,tjc->tic", block, t[:, :d]), t[:, d:] * SQRT_HALF]
            return np.take(np.concatenate(vals, axis=1), spread, axis=1)
        # take, not t[:, idx]: each item stays contiguous, so its products round as alone
        g = np.take(t, gather, axis=1)
        pairs = (g[:, d::2] + g[:, d + 1::2]) * SQRT_HALF
        return np.concatenate([np.einsum("ji,tjc->tic", block, g[:, :d]), pairs], axis=1)
