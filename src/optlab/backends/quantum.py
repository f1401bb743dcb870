"""Quantum backends: complex amplitudes and the real-amplitude variant.

States on a word with composite carrier dimension D are self-adjoint D x D
matrices expanded over a fixed orthonormal operator basis; transformations
are completely positive trace-non-increasing maps, compiled from Choi or
Kraus payloads to process-matrix kernels.

The two backends differ in their scalars and, consequently, in how
composite coordinate spaces relate to component ones:

* complex amplitudes — the composite basis is the ordered Kronecker product
  of the per-primitive bases, so coordinate dimensions multiply and the
  transfer matrix of a side-by-side pair is the Kronecker product of the
  component transfer matrices;
* real amplitudes — states are real symmetric matrices.  The joint space of
  a pair is strictly larger than the tensor product of the component
  coordinate spaces (for two dimension-2 primitives: 10 vs 9), so the
  composite basis is the canonical symmetric basis of the joint carrier and
  transfer matrices do *not* determine a transformation's action on joint
  systems; kernels do.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..diagram import SystemType
from ..errors import (
    BackendLacksPurificationError,
    BranchSumMismatchError,
    NotPhysicalError,
    OptlabError,
    UnsupportedBranchError,
)
from .. import linalg
from .base import (
    Channel,
    EffectVector,
    Extremal,
    Payload,
    PhysicalityCertificate,
    StateVector,
    TheoryBackend,
    TransferMatrix,
)

__all__ = ["QuantumBackend", "RealQuantumBackend"]


def _ket_projector(d: int, support: tuple[int, ...], amps: tuple[complex, ...]) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    for i, a in zip(support, amps):
        v[i] = a
    return np.outer(v, v.conj())


def _canonical_projector_family(d: int, with_phases: bool) -> list[np.ndarray]:
    """Rank-one projectors spanning the self-adjoint matrices on dimension d.

    Basis kets, balanced two-level superpositions, and (complex case) the
    quarter-phase superpositions; all are valid states and valid effects.
    """
    s = 1.0 / np.sqrt(2.0)
    fam = [_ket_projector(d, (j,), (1.0,)) for j in range(d)]
    for j in range(d):
        for k in range(j + 1, d):
            fam.append(_ket_projector(d, (j, k), (s, s)))
            if with_phases:
                fam.append(_ket_projector(d, (j, k), (s, 1j * s)))
    return fam


class _MatrixTheory(TheoryBackend):
    """Machinery shared by the complex and real quantum backends."""

    _complex_scalars: bool = True
    legs_per_wire = 2
    weight_terms = ("min_spectral_weight", "trace")

    def __init__(self, systems=None) -> None:
        self._basis_cache: dict[SystemType, np.ndarray] = {}
        super().__init__(systems)

    # -- coordinate bases ----------------------------------------------

    def basis(self, word: SystemType) -> np.ndarray:
        """Operator basis of the word, shape (state_dim, D, D); cached."""
        if word not in self._basis_cache:
            self._basis_cache[word] = self._build_basis(word)
        return self._basis_cache[word]

    def _build_basis(self, word: SystemType) -> np.ndarray:
        raise NotImplementedError

    def _flat_basis(self, word: SystemType) -> np.ndarray:
        b = self.basis(word)
        n = b.shape[0]
        return b.reshape(n, -1).T  # (D*D, n), columns are vec'd basis elements

    # -- payload compilation -------------------------------------------

    def _coerce_array(self, data, shape: tuple[int, ...], what: str) -> np.ndarray:
        arr = np.asarray(data, dtype=complex)
        if arr.shape != shape:
            raise OptlabError(f"{what} has shape {arr.shape}, expected {shape}")
        if not self._complex_scalars:
            imag = float(np.max(np.abs(arr.imag))) if arr.size else 0.0
            if imag > self.tol.algebra:
                raise NotPhysicalError(
                    PhysicalityCertificate(
                        physical=False,
                        role="payload",
                        reason="complex entries in a real-theory payload",
                        margin=imag,
                        witness={"max_imaginary_part": imag},
                    )
                )
            arr = np.ascontiguousarray(arr.real)
        return arr

    def _channel_from_payload(
        self, payload: Payload, input_type: SystemType, output_type: SystemType
    ) -> Channel:
        din = self.hilbert_dim(input_type)
        dout = self.hilbert_dim(output_type)
        kind = payload.kind
        if kind == "choi":
            j = self._coerce_array(payload.data, (din * dout, din * dout), "choi matrix")
            kernel = linalg.liouville_from_choi(j, din, dout)
        elif kind == "kraus":
            data = payload.data if isinstance(payload.data, (list, tuple)) else [payload.data]
            if not data:
                raise OptlabError("kraus payload needs at least one matrix")
            mats = [self._coerce_array(m, (dout, din), "kraus matrix") for m in data]
            kernel = linalg.kraus_to_liouville(mats)
        elif kind == "dens":
            if input_type.is_unit:
                rho = self._coerce_array(payload.data, (dout, dout), "state matrix")
                kernel = linalg.vec(rho).reshape(-1, 1)
            elif output_type.is_unit:
                eff = self._coerce_array(payload.data, (din, din), "effect matrix")
                kernel = linalg.vec(eff).conj().reshape(1, -1)
            else:
                raise OptlabError("dens payloads declare states or effects, not boxes")
        elif kind == "vec":
            if input_type.is_unit:
                v = self._coerce_array(payload.data, (dout,), "state vector")
                kernel = linalg.vec(np.outer(v, v.conj())).reshape(-1, 1)
            elif output_type.is_unit:
                v = self._coerce_array(payload.data, (din,), "effect vector")
                kernel = linalg.vec(np.outer(v, v.conj())).conj().reshape(1, -1)
            else:
                raise OptlabError("vec payloads declare states or effects, not boxes")
        else:
            raise OptlabError(f"payload kind {kind!r} is not meaningful on backend {self.name!r}")
        return Channel(input_type, output_type, self.project_scalars(kernel))

    # -- physicality ----------------------------------------------------

    def channel_choi(self, ch: Channel) -> np.ndarray:
        din = self.hilbert_dim(ch.input_type)
        dout = self.hilbert_dim(ch.output_type)
        return linalg.choi_from_liouville(ch.kernel, din, dout)

    def channel_from_choi(
        self, choi: np.ndarray, input_type: SystemType, output_type: SystemType
    ) -> Channel:
        din = self.hilbert_dim(input_type)
        dout = self.hilbert_dim(output_type)
        choi = self._coerce_array(choi, (din * dout, din * dout), "choi matrix")
        kernel = linalg.liouville_from_choi(choi, din, dout)
        return Channel(input_type, output_type, self.project_scalars(kernel))

    def certify_channel(self, ch: Channel) -> PhysicalityCertificate:
        role = self._role(ch.input_type, ch.output_type)
        din = self.hilbert_dim(ch.input_type)
        j = self.channel_choi(ch)
        floor = self.tol.eigenvalue_floor
        diagnostics: dict = {}

        herm_residual = float(np.max(np.abs(j - j.conj().T))) if j.size else 0.0
        diagnostics["self_adjointness_residual"] = herm_residual
        if herm_residual > max(self.tol.algebra, self.tol.algebra * float(np.max(np.abs(j)))):
            return PhysicalityCertificate(
                False, role, "not self-adjoint", herm_residual,
                {"residual": herm_residual}, diagnostics,
            )

        vals, vecs = linalg.sorted_eigh((j + j.conj().T) / 2.0)
        min_eig = float(vals[-1])
        diagnostics["min_choi_eigenvalue"] = min_eig
        if min_eig < -floor:
            return PhysicalityCertificate(
                False, role, "negative eigenvalue", -min_eig,
                {"eigenvalue": min_eig, "eigenvector": vecs[:, -1]}, diagnostics,
            )

        j4 = j.reshape(din, -1, din, j.shape[0] // din)
        reduced = np.einsum("ibjb->ij", j4)
        slack = np.eye(din) - reduced
        svals = np.linalg.eigvalsh((slack + slack.conj().T) / 2.0)
        trace_margin = float(svals[0])
        diagnostics["trace_condition_margin"] = trace_margin
        if trace_margin < -floor:
            return PhysicalityCertificate(
                False, role, "trace condition", -trace_margin,
                {"eigenvalue": trace_margin, "reduced_trace": reduced}, diagnostics,
            )

        return PhysicalityCertificate(True, role, None, 0.0, {}, diagnostics)

    def deterministic_residual(self, ch: Channel) -> float:
        din = self.hilbert_dim(ch.input_type)
        j = self.channel_choi(ch)
        j4 = j.reshape(din, -1, din, j.shape[0] // din)
        reduced = np.einsum("ibjb->ij", j4)
        return float(np.max(np.abs(reduced - np.eye(din))))

    # -- kernel algebra -------------------------------------------------

    def apply_first(self, kernels, input_word, output_word, state):
        din, dout = self.hilbert_dim(input_word), self.hilbert_dim(output_word)
        ref = SystemType(state.system.word[len(input_word):])
        r = self.hilbert_dim(ref)
        rho = self.state_object(state.coords, state.system).reshape(din, r, din, r)
        legs = kernels.reshape(-1, dout, dout, din, din)
        out = np.einsum("tklij,irjs->tkrls", legs, rho).reshape(len(legs), 1, -1)
        # one vector-matrix product per kernel, so a row never depends on the stack height
        return np.real(out @ self._flat_basis(output_word * ref).conj())[:, 0]

    def transfer_of(self, ch: Channel) -> TransferMatrix:
        w_in = self._flat_basis(ch.input_type)
        w_out = self._flat_basis(ch.output_type)
        t = w_out.conj().T @ ch.kernel @ w_in
        return TransferMatrix(np.real(t), ch.input_type, ch.output_type)

    # -- coordinates ----------------------------------------------------

    def state_coords(self, obj: np.ndarray, word: SystemType) -> np.ndarray:
        return np.real(np.einsum("nij,ji->n", self.basis(word), np.asarray(obj, dtype=complex)))

    def state_object(self, coords: np.ndarray, word: SystemType) -> np.ndarray:
        m = np.einsum("n,nij->ij", np.asarray(coords, dtype=float), self.basis(word))
        return self.project_scalars(m)

    def state_channel(self, obj: np.ndarray, word: SystemType) -> Channel:
        d = self.hilbert_dim(word)
        rho = self._coerce_array(obj, (d, d), "state matrix")
        return Channel(SystemType(()), word, linalg.vec(rho).reshape(-1, 1))

    def effect_channel(self, obj: np.ndarray, word: SystemType) -> Channel:
        d = self.hilbert_dim(word)
        eff = self._coerce_array(obj, (d, d), "effect matrix")
        return Channel(word, SystemType(()), linalg.vec(eff).conj().reshape(1, -1))

    def conjugation_channel(
        self, u: np.ndarray, input_word: SystemType, output_word: SystemType | None = None
    ) -> Channel:
        """Channel X -> U X U* for a (possibly rectangular) isometry U."""
        wout = input_word if output_word is None else output_word
        u = self._coerce_array(u, (self.hilbert_dim(wout), self.hilbert_dim(input_word)), "isometry")
        return Channel(input_word, wout, np.kron(u, u.conj()))

    def spanning_states(self, word: SystemType) -> list[StateVector]:
        return [StateVector(self.state_coords(m, word), word) for m in self._spanning_matrices(word)]

    def _spanning_matrices(self, word: SystemType) -> list[np.ndarray]:
        raise NotImplementedError

    def partial_trace(self, obj, dims, keep):
        return linalg.partial_trace(obj, dims, keep)

    def diagonal(self, p):
        return np.diag(np.asarray(p, dtype=float))

    # -- extremality: the spectrum of the density matrix or Choi matrix ---

    def extremal_decomposition(self, obj) -> Extremal:
        vals, vecs = linalg.sorted_eigh(obj)
        rank = linalg.rank_with_cutoff(vals)
        weights = [float(v) for v in vals[:rank]]
        witness = None
        if rank > 1:
            p0 = vals[0] * np.outer(vecs[:, 0], vecs[:, 0].conj())
            witness = {"summands": [p0, obj - p0], "spectrum": weights}
        return Extremal(rank, weights, witness, vecs * np.sqrt(np.clip(vals, 0.0, None)))

    def purification(self, obj, dec):
        """The ket ``sum_i sqrt(w_i) v_i (x) e_i`` on a rank-sized wing."""
        if dec.rank == 0:
            raise BackendLacksPurificationError("the zero state has no pure extension")
        ket = dec.amplitudes[:, :dec.rank].reshape(-1)
        return self.project_scalars(np.outer(ket, ket.conj())), dec.rank

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

    def random_state(self, rng, word, rank=None):
        rho = self.density_matrix(rng, self.hilbert_dim(word), rank)
        return StateVector(self.state_coords(rho, word), word)

    def random_effect(self, rng, word):
        d = self.hilbert_dim(word)
        u = self.random_unitary(rng, d)
        e = u @ np.diag(rng.uniform(size=d)) @ u.conj().T
        return EffectVector(self.effect_coords(e, word), word)

    def random_channels(self, rng, input_word, output_word, count):
        din, dout = self.hilbert_dim(input_word), self.hilbert_dim(output_word)
        return linalg.liouville_from_choi(self._tp_choi(rng, din, dout, count), din, dout)

    def _tp_choi(self, rng, din: int, dout: int, count: int) -> np.ndarray:
        """``count`` random trace-preserving Choi matrices, stacked."""
        g = self.gaussian(rng, count, din * dout, din * dout)
        j0 = g @ g.conj().swapaxes(-1, -2)
        red = np.einsum("tibjb->tij", j0.reshape(count, din, dout, din, dout))
        vals, vecs = np.linalg.eigh(red)
        rinv = (vecs * vals[:, None, :] ** -0.5) @ vecs.conj().swapaxes(-1, -2)
        scale = np.einsum("tij,kl->tikjl", rinv, np.eye(dout)).reshape(j0.shape)
        return self.project_scalars(scale @ j0 @ scale.conj().swapaxes(-1, -2))

    def random_reversible(self, rng, word):
        return self.conjugation_channel(self.random_unitary(rng, self.hilbert_dim(word)), word)

    def random_povm(self, rng, word, k):
        d = self.hilbert_dim(word)
        raw = []
        for _ in range(k):
            g = self.gaussian(rng, d, d)
            raw.append(g @ g.conj().T)
        vals, vecs = np.linalg.eigh(sum(raw))
        corr = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
        return [corr @ e @ corr.conj().T for e in raw]

    def random_preparation(self, rng, word, k):
        d = self.hilbert_dim(word)
        vals, vecs = np.linalg.eigh(self.density_matrix(rng, d))
        f = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
        split = np.stack([self.simplex_weights(rng, k) for _ in range(d)], axis=1)
        return [f @ np.diag(wx) @ f.conj().T for wx in split]

    def random_instrument(self, rng, input_word, output_word, k):
        din, dout = self.hilbert_dim(input_word), self.hilbert_dim(output_word)
        vals, vecs = np.linalg.eigh(self._tp_choi(rng, din, dout, 1)[0])
        a = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
        split = np.stack([self.simplex_weights(rng, k) for _ in range(din * dout)], axis=1)
        return [self.channel_from_choi(a @ np.diag(wx) @ a.conj().T, input_word, output_word)
                for wx in split]


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

    def _build_basis(self, word: SystemType) -> np.ndarray:
        out = np.ones((1, 1, 1), dtype=complex)
        for d in self.word_dims(word):
            out = linalg.kron_basis(out, linalg.hermitian_basis(d))
        return out

    def _spanning_matrices(self, word: SystemType) -> list[np.ndarray]:
        families = [
            _canonical_projector_family(d, with_phases=True) for d in self.word_dims(word)
        ]
        out = []
        for combo in itertools.product(*families):
            m = np.eye(1, dtype=complex)
            for factor in combo:
                m = np.kron(m, factor)
            out.append(m)
        return out

    def channel_from_transfer(self, t: TransferMatrix) -> Channel:
        w_in = self._flat_basis(t.input_type)
        w_out = self._flat_basis(t.output_type)
        kernel = w_out @ t.matrix.astype(complex) @ w_in.conj().T
        return Channel(t.input_type, t.output_type, kernel)


class RealQuantumBackend(_MatrixTheory):
    """Real-amplitude quantum theory.

    Exists to exercise everything that goes wrong without local tomography:
    joint coordinate spaces outgrow products of component ones, and
    transformations are not pinned down by their local transfer matrices.
    """

    name = "quantum-real"
    _complex_scalars = False

    def state_dim(self, word: SystemType) -> int:
        d = self.hilbert_dim(word)
        return d * (d + 1) // 2

    def _build_basis(self, word: SystemType) -> np.ndarray:
        return linalg.symmetric_basis(self.hilbert_dim(word))

    def _spanning_matrices(self, word: SystemType) -> list[np.ndarray]:
        # products of component families do not span here; use the canonical
        # family on the joint carrier (all members are physical joint states)
        fam = _canonical_projector_family(self.hilbert_dim(word), with_phases=False)
        return [m.real for m in fam]

    def channel_from_transfer(self, t: TransferMatrix) -> Channel:
        raise OptlabError(
            "real-amplitude transformations are not determined by their transfer "
            "matrices; pass a channel or a Choi payload instead"
        )
