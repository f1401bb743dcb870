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
from ..errors import OptlabError
from .. import linalg
from .base import (
    Channel,
    EffectVector,
    Payload,
    PhysicalityCertificate,
    StateVector,
    TheoryBackend,
    TransferMatrix,
)

__all__ = ["ClassicalBackend"]


class ClassicalBackend(TheoryBackend):

    name = "classical"
    locally_tomographic = True

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

    def kernel_identity(self, word: SystemType) -> np.ndarray:
        return np.eye(self.hilbert_dim(word))

    def kernel_swap(self, left: SystemType, right: SystemType) -> np.ndarray:
        return linalg.block_swap_permutation(self.hilbert_dim(left), self.hilbert_dim(right))

    def kernel_par(self, left: Channel, right: Channel) -> np.ndarray:
        return np.kron(left.kernel, right.kernel)

    def apply_first(self, kernels, input_word, output_word, state):
        joint = state.coords.reshape(self.hilbert_dim(input_word), -1)
        out = np.einsum("tki,ir->tkr", kernels, joint)
        return out.reshape(len(out), -1)

    def trace_channel(self, word: SystemType) -> Channel:
        return Channel(word, SystemType(()), np.ones((1, self.hilbert_dim(word))))

    def transfer_of(self, ch: Channel) -> TransferMatrix:
        return TransferMatrix(np.array(ch.kernel, dtype=float), ch.input_type, ch.output_type)

    # -- coordinates ----------------------------------------------------

    def state_coords(self, obj: np.ndarray, word: SystemType) -> np.ndarray:
        return np.asarray(obj, dtype=float).reshape(-1)

    def state_object(self, coords: np.ndarray, word: SystemType) -> np.ndarray:
        return np.asarray(coords, dtype=float).reshape(-1)

    effect_coords = state_coords
    effect_object = state_object

    def state_channel(self, obj: np.ndarray, word: SystemType) -> Channel:
        v = self._coerce_array(obj, (self.hilbert_dim(word),), "probability vector")
        return Channel(SystemType(()), word, v.reshape(-1, 1))

    def effect_channel(self, obj: np.ndarray, word: SystemType) -> Channel:
        v = self._coerce_array(obj, (self.hilbert_dim(word),), "effect vector")
        return Channel(word, SystemType(()), v.reshape(1, -1))

    def uniform_state(self, word: SystemType) -> StateVector:
        d = self.hilbert_dim(word)
        return StateVector(np.full(d, 1.0 / d), word)

    def spanning_states(self, word: SystemType) -> list[StateVector]:
        d = self.hilbert_dim(word)
        return [StateVector(row, word) for row in np.eye(d)]

    def spanning_effects(self, word: SystemType) -> list[EffectVector]:
        d = self.hilbert_dim(word)
        return [EffectVector(row, word) for row in np.eye(d)]
