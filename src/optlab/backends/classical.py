"""Classical probabilistic backend.

States on a word with sample-space size D are subnormalized probability
vectors in R^D; transformations are entrywise-nonnegative matrices with
column sums at most one (substochastic action).  Coordinates coincide with
the vectors themselves, so kernels, transfer matrices, and Choi-style data
are all the same matrix.
"""

from __future__ import annotations

import numpy as np

from ..diagram import SystemType
from ..errors import (
    BackendLacksPurificationError,
    BranchSumMismatchError,
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

__all__ = ["ClassicalBackend"]


class ClassicalBackend(TheoryBackend):

    name = "classical"
    purifies = False
    pair_payloads = False
    legs_per_wire = 1
    weight_terms = ("min_entry", "total")

    def state_dim(self, word: SystemType) -> int:
        return self.hilbert_dim(word)

    # -- payload compilation -------------------------------------------

    def _coerce_array(self, data, shape: tuple[int, ...], what: str) -> np.ndarray:
        arr = np.asarray(data)
        if np.iscomplexobj(arr):
            if arr.size and float(np.max(np.abs(arr.imag))) > self.tol.algebra:
                raise OptlabError(f"{what} has complex entries; classical payloads are real")
            arr = arr.real
        arr = arr.astype(float)
        if arr.shape != shape:
            raise OptlabError(f"{what} has shape {arr.shape}, expected {shape}")
        return arr

    def _channel_from_payload(
        self, payload: Payload, input_type: SystemType, output_type: SystemType
    ) -> Channel:
        din = self.hilbert_dim(input_type)
        dout = self.hilbert_dim(output_type)
        kind = payload.kind
        if kind == "stoch":
            m = self._coerce_array(payload.data, (dout, din), "stochastic matrix")
            return Channel(input_type, output_type, m)
        if kind == "vec":
            if input_type.is_unit:
                v = self._coerce_array(payload.data, (dout,), "probability vector")
                return Channel(input_type, output_type, v.reshape(-1, 1))
            if output_type.is_unit:
                v = self._coerce_array(payload.data, (din,), "effect vector")
                return Channel(input_type, output_type, v.reshape(1, -1))
            raise OptlabError("vec payloads declare states or effects, not boxes")
        raise OptlabError(f"payload kind {kind!r} is not meaningful on backend {self.name!r}")

    # -- physicality ----------------------------------------------------

    def channel_choi(self, ch: Channel) -> np.ndarray:
        return np.array(ch.kernel)

    def certify_channel(self, ch: Channel) -> PhysicalityCertificate:
        role = self._role(ch.input_type, ch.output_type)
        m = np.asarray(ch.kernel, dtype=float)
        floor = self.tol.eigenvalue_floor
        min_entry = float(m.min()) if m.size else 0.0
        col_sums = m.sum(axis=0) if m.size else np.zeros(0)
        max_col = float(col_sums.max()) if col_sums.size else 0.0
        diagnostics = {"min_entry": min_entry, "max_column_sum": max_col}
        if min_entry < -floor:
            idx = np.unravel_index(int(np.argmin(m)), m.shape)
            return PhysicalityCertificate(
                False, role, "negative entry", -min_entry,
                {"entry": [int(i) for i in idx], "value": min_entry}, diagnostics,
            )
        if max_col > 1.0 + floor:
            col = int(np.argmax(col_sums))
            return PhysicalityCertificate(
                False, role, "column sum exceeds one", max_col - 1.0,
                {"column": col, "sum": max_col}, diagnostics,
            )
        return PhysicalityCertificate(True, role, None, 0.0, {}, diagnostics)

    def deterministic_residual(self, ch: Channel) -> float:
        col_sums = np.asarray(ch.kernel, dtype=float).sum(axis=0)
        return float(np.max(np.abs(col_sums - 1.0))) if col_sums.size else 0.0

    def channel_from_transfer(self, t: TransferMatrix) -> Channel:
        return Channel(t.input_type, t.output_type, np.array(t.matrix, dtype=float))

    # -- kernel algebra -------------------------------------------------

    def apply_first(self, kernels, input_word, output_word, state):
        joint = state.coords.reshape(self.hilbert_dim(input_word), -1)
        out = np.einsum("tki,ir->tkr", kernels, joint)
        return out.reshape(len(out), -1)

    def transfer_of(self, ch: Channel) -> TransferMatrix:
        return TransferMatrix(np.array(ch.kernel, dtype=float), ch.input_type, ch.output_type)

    # -- coordinates ----------------------------------------------------

    def state_coords(self, obj: np.ndarray, word: SystemType) -> np.ndarray:
        return np.asarray(obj, dtype=float).reshape(-1)

    def state_object(self, coords: np.ndarray, word: SystemType) -> np.ndarray:
        return np.asarray(coords, dtype=float).reshape(-1)

    def state_channel(self, obj: np.ndarray, word: SystemType) -> Channel:
        v = self._coerce_array(obj, (self.hilbert_dim(word),), "probability vector")
        return Channel(SystemType(()), word, v.reshape(-1, 1))

    def effect_channel(self, obj: np.ndarray, word: SystemType) -> Channel:
        v = self._coerce_array(obj, (self.hilbert_dim(word),), "effect vector")
        return Channel(word, SystemType(()), v.reshape(1, -1))

    def spanning_states(self, word: SystemType) -> list[StateVector]:
        d = self.hilbert_dim(word)
        return [StateVector(row, word) for row in np.eye(d)]

    def conjugation_channel(self, u, input_word, output_word=None) -> Channel:
        """A permutation's or point map's kernel is the matrix itself."""
        wout = input_word if output_word is None else output_word
        shape = (self.hilbert_dim(wout), self.hilbert_dim(input_word))
        return Channel(input_word, wout, self._coerce_array(u, shape, "map"))

    def partial_trace(self, obj, dims, keep):
        drop = tuple(i for i in range(len(dims)) if i not in keep)
        return np.asarray(obj).reshape(dims or [1]).sum(axis=drop).reshape(-1)

    def diagonal(self, p):
        return np.asarray(p, dtype=float)

    # -- extremality: a vector or kernel is pure when one entry carries weight

    def extremal_decomposition(self, obj) -> Extremal:
        v = np.asarray(obj, dtype=float)
        top = float(np.max(np.abs(v), initial=0.0))
        where = np.argwhere(np.abs(v) > linalg.RANK_CUTOFF * max(top, 1.0))
        weights = [float(v[tuple(i)]) for i in where]
        if len(where) <= 1:
            return Extremal(len(where), weights, None, v.reshape(-1, 1))
        a = np.zeros_like(v)
        a[tuple(where[0])] = v[tuple(where[0])]
        key, at = ("support", where[:, 0]) if v.ndim == 1 else ("entries", where)
        return Extremal(len(where), weights, {"summands": [a, v - a], key: at.tolist()})

    def purification(self, obj, dec):
        if dec.rank <= 1:
            return obj, 1
        if np.ndim(obj) == 2:
            raise BackendLacksPurificationError(
                f"no pure realization: the transformation has {dec.rank} nonzero "
                "entries and only single-entry (point-preparation) maps are pure "
                "in the classical theory"
            )
        raise BackendLacksPurificationError(
            "classical states with more than one support point have no pure extension"
        )

    def pure_connection(self, first, second, base_dim, ext_dim):
        """Point masses at (a1, b1) and (a2, b2): swap b1 and b2."""
        i1, i2 = int(np.argmax(first)), int(np.argmax(second))
        (a1, b1), (a2, b2) = divmod(i1, ext_dim), divmod(i2, ext_dim)
        w1, w2 = float(first[i1]), float(second[i2])
        marginal_error = max(abs(w1 - w2), 0.0 if a1 == a2 else max(w1, w2))
        u = np.eye(ext_dim)
        u[[b1, b2]] = u[[b2, b1]]
        return u, marginal_error

    def steering_effects(self, psi, branches, base_dim, ext_dim, labels, tol):
        flat = int(np.argmax(psi))
        a0, b0 = divmod(flat, ext_dim)
        mass = float(psi[flat])
        total = sum(branches)
        marg = np.zeros_like(total)
        marg[a0] = mass
        if float(np.max(np.abs(total - marg))) > self.tol.marginal:
            raise BranchSumMismatchError(
                "branch sum does not match the marginal of the pure extension"
            )
        effects = []
        for label, v in zip(labels, branches):
            off = float(np.max(np.abs(np.delete(v, a0)))) if v.size > 1 else 0.0
            if off > tol:
                raise UnsupportedBranchError(
                    f"branch {label!r} puts weight {off:.3e} outside the support"
                )
            e = np.zeros(ext_dim)
            e[b0] = float(v[a0]) / mass
            effects.append(e)
        return effects, np.ones(ext_dim) - sum(effects)

    def faithful_probe(self, word: SystemType) -> StateVector:
        """The correlated copy on ``word * word``: mixed states do not purify."""
        d = self.hilbert_dim(word)
        sigma = np.zeros(d * d)
        sigma[:: d + 1] = 1.0 / d
        return StateVector(sigma, word * word)

    # -- random draws ---------------------------------------------------

    def random_state(self, rng, word, rank=None):
        return StateVector(self.simplex_weights(rng, self.hilbert_dim(word)), word)

    def random_effect(self, rng, word):
        return EffectVector(rng.uniform(size=self.hilbert_dim(word)), word)

    def random_channels(self, rng, input_word, output_word, count):
        din, dout = self.hilbert_dim(input_word), self.hilbert_dim(output_word)
        w = rng.exponential(size=(count, din, dout))
        w = w / w.sum(axis=-1, keepdims=True)
        return np.ascontiguousarray(w.swapaxes(-1, -2))

    def random_reversible(self, rng, word):
        d = self.hilbert_dim(word)
        m = np.zeros((d, d))
        m[rng.permutation(d), np.arange(d)] = 1.0
        return Channel(word, word, m)

    def random_povm(self, rng, word, k):
        d = self.hilbert_dim(word)
        return list(np.stack([self.simplex_weights(rng, k) for _ in range(d)], axis=1))

    def random_preparation(self, rng, word, k):
        d = self.hilbert_dim(word)
        total = self.simplex_weights(rng, d)
        split = np.stack([self.simplex_weights(rng, k) for _ in range(d)], axis=1)
        return list(split * total)

    def random_instrument(self, rng, input_word, output_word, k):
        m = self.random_channels(rng, input_word, output_word, 1)[0]
        split = rng.dirichlet(np.ones(k), size=m.shape)
        return [Channel(input_word, output_word, m * split[:, :, x]) for x in range(k)]
