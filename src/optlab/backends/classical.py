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
    Extremal,
    Payload,
    PhysicalityCertificate,
    StateVector,
    TheoryBackend,
)

__all__ = ["ClassicalBackend"]


class ClassicalBackend(TheoryBackend):

    name = "classical"
    purifies = False
    pair_payloads = False
    legs_per_wire = 1

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
        kind = payload.kind
        if kind == "stoch":
            shape = (self.hilbert_dim(output_type), self.hilbert_dim(input_type))
            m = self._coerce_array(payload.data, shape, "stochastic matrix")
            return Channel(input_type, output_type, m)
        if kind == "vec":
            if input_type.is_unit:
                return self.state_channel(payload.data, output_type)
            if output_type.is_unit:
                return self.effect_channel(payload.data, input_type)
            raise OptlabError("vec payloads declare states or effects, not boxes")
        raise OptlabError(f"payload kind {kind!r} is not meaningful on backend {self.name!r}")

    # -- physicality ----------------------------------------------------

    def channel_choi(self, ch: Channel) -> np.ndarray:
        return np.array(ch.kernel)

    def check_kernels(self, kernels, din, dout):
        """Nonnegative entries, then column sums at most one, for the whole stack."""
        m = np.asarray(kernels, dtype=float)
        floor = self.tol.eigenvalue_floor
        min_entry = m.min(axis=(-2, -1))
        col_sums = m.sum(axis=-2)
        max_col = col_sums.max(axis=-1)
        negative = min_entry < -floor
        overfull = max_col > 1.0 + floor

        def certificate(i: int, role: str) -> PhysicalityCertificate:
            low, high = float(min_entry[i]), float(max_col[i])
            diagnostics = {"min_entry": low, "max_column_sum": high}
            if negative[i]:
                idx = np.unravel_index(int(np.argmin(m[i])), m[i].shape)
                return PhysicalityCertificate(
                    False, role, "negative entry", -low,
                    {"entry": [int(k) for k in idx], "value": low}, diagnostics,
                )
            if overfull[i]:
                return PhysicalityCertificate(
                    False, role, "column sum exceeds one", high - 1.0,
                    {"column": int(np.argmax(col_sums[i])), "sum": high}, diagnostics,
                )
            return PhysicalityCertificate(True, role, None, 0.0, {}, diagnostics)

        return ~(negative | overfull), certificate

    def deterministic_residual(self, ch: Channel) -> float:
        col_sums = np.asarray(ch.kernel, dtype=float).sum(axis=0)
        return float(np.max(np.abs(col_sums - 1.0))) if col_sums.size else 0.0

    # -- kernel algebra -------------------------------------------------

    def transfer_matrices(self, kernels, input_type, output_type):
        return np.array(kernels, dtype=float)

    # -- coordinates ----------------------------------------------------

    def state_coords(self, obj: np.ndarray, word: SystemType) -> np.ndarray:
        return np.asarray(obj, dtype=float)

    def state_object(self, coords: np.ndarray, word: SystemType) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        return coords.reshape(*coords.shape[:-1], -1)

    def state_channel(self, obj: np.ndarray, word: SystemType) -> Channel:
        lead = obj.shape[:-1] if isinstance(obj, np.ndarray) else ()  # a payload is nested tuples
        v = self._coerce_array(obj, (*lead, self.hilbert_dim(word)), "probability vector")
        return Channel(SystemType(()), word, v.reshape(*lead, -1, 1))

    def effect_channel(self, obj: np.ndarray, word: SystemType) -> Channel:
        lead = obj.shape[:-1] if isinstance(obj, np.ndarray) else ()  # a payload is nested tuples
        v = self._coerce_array(obj, (*lead, self.hilbert_dim(word)), "effect vector")
        return Channel(word, SystemType(()), v.reshape(*lead, 1, -1))

    def spanning_states(self, word: SystemType) -> np.ndarray:
        return np.eye(self.hilbert_dim(word))

    def conjugation_channel(self, u, input_word, output_word=None) -> Channel:
        """A permutation's or point map's kernel is the matrix itself."""
        wout = input_word if output_word is None else output_word
        shape = (self.hilbert_dim(wout), self.hilbert_dim(input_word))
        return Channel(input_word, wout, self._coerce_array(u, shape, "map"))

    def partial_trace(self, obj, dims, keep):
        obj = np.asarray(obj)
        lead = obj.shape[:-1]
        drop = tuple(len(lead) + i for i in range(len(dims)) if i not in keep)
        return obj.reshape(*lead, *(dims or [1])).sum(axis=drop).reshape(*lead, -1)

    def diagonal(self, p):
        return np.asarray(p, dtype=float)

    # -- extremality: a vector or kernel is pure when one entry carries weight

    def extremal_decompositions(self, objs) -> list[Extremal]:
        objs = np.asarray(objs, dtype=float)
        size = np.abs(objs)
        top = size.reshape(len(objs), -1).max(axis=1, initial=0.0)
        cut = linalg.RANK_CUTOFF * np.maximum(top, 1.0)
        out = []
        for v, heavy in zip(objs, size > cut.reshape(-1, *[1] * (objs.ndim - 1))):
            where = np.argwhere(heavy)
            weights = [float(v[tuple(i)]) for i in where]
            if len(where) <= 1:
                out.append(Extremal(len(where), weights, None, v.reshape(-1, 1)))
                continue
            a = np.zeros_like(v)
            a[tuple(where[0])] = v[tuple(where[0])]
            key, at = ("support", where[:, 0]) if v.ndim == 1 else ("entries", where)
            out.append(Extremal(len(where), weights, {"summands": [a, v - a], key: at.tolist()}))
        return out

    def purifications(self, objs, decs):
        rank = decs[0].rank
        if rank == 1:
            return objs, 1
        if np.ndim(objs) == 3:
            raise BackendLacksPurificationError(
                f"no pure realization: the transformation has {rank} nonzero "
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

    def state_draws(self, rng, word, count, rank=None):
        return rng.exponential(size=(count, self.hilbert_dim(word)))

    def drawn_states(self, draws, word):
        """Each draw over its sum, as ``simplex_weights`` forms it."""
        return draws / draws.sum(axis=-1, keepdims=True)

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

    def povm_draws(self, rng, word, k):
        """One row of weights per effect, one weight per point."""
        return rng.exponential(size=(k, self.hilbert_dim(word)))

    def drawn_povms(self, draws):
        """Each point's weights over their sum across a test's effects."""
        return draws / draws.sum(axis=-2, keepdims=True)

    def random_preparation(self, rng, word, k):
        d = self.hilbert_dim(word)
        total = self.simplex_weights(rng, d)
        split = np.stack([self.simplex_weights(rng, k) for _ in range(d)], axis=1)
        return list(split * total)

    def random_instrument(self, rng, input_word, output_word, k):
        m = self.random_channels(rng, input_word, output_word, 1)[0]
        split = rng.dirichlet(np.ones(k), size=m.shape)
        return [Channel(input_word, output_word, m * split[:, :, x]) for x in range(k)]
