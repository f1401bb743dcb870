"""Backend interface: concrete theories plug in here.

A backend fixes, for every system word, a real coordinate space for states
and effects, and compiles box payloads to *kernels* — the internal linear
form the evaluator composes.  Transfer matrices (real, rows indexed by the
output coordinates, columns by the input coordinates) are extracted from
kernels at the boundary.

Backends are immutable after construction: the system table and the box
table are fixed, and every exposed array is freshly allocated or treated as
read-only.

System labels of the reserved form ``@<n>`` denote scratch systems of
dimension ``n`` (purifying systems, dilation environments, readout
pointers); every backend resolves them without declaration.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..diagram import SystemType
from ..errors import (
    NotPhysicalError,
    OptlabError,
    OutOfRangeError,
    UnknownBoxError,
    UnknownSystemError,
)

__all__ = [
    "Tolerances",
    "TransferMatrix",
    "StateVector",
    "EffectVector",
    "PhysicalityCertificate",
    "Payload",
    "Channel",
    "TheoryBackend",
]


@dataclass(frozen=True)
class Tolerances:
    """Default numeric thresholds, shared package-wide.

    ``algebra`` guards identities that hold exactly up to rounding,
    ``marginal`` guards normalization/marginal checks, and
    ``eigenvalue_floor`` is how far below zero a spectrum may dip while
    still counting as positive semidefinite.
    """

    algebra: float = 1e-12
    marginal: float = 1e-10
    eigenvalue_floor: float = 1e-9
    gap: float = 1e-9


@dataclass
class TransferMatrix:
    """Real matrix action on state coordinates: rows = output, cols = input."""

    matrix: np.ndarray
    input_type: SystemType
    output_type: SystemType

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape  # type: ignore[return-value]


@dataclass
class StateVector:
    coords: np.ndarray
    system: SystemType

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=float).reshape(-1)


@dataclass
class EffectVector:
    coords: np.ndarray
    system: SystemType

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=float).reshape(-1)

    def pair(self, state: StateVector) -> float:
        """Probability pairing; coordinates are built so this is a dot product."""
        return float(self.coords @ state.coords)


@dataclass
class PhysicalityCertificate:
    """Outcome of a physicality check, with a witness when it fails."""

    physical: bool
    role: str  # "state" | "effect" | "transformation"
    reason: str | None = None
    margin: float = 0.0
    witness: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def __str__(self) -> str:
        if self.physical:
            return f"physical {self.role}"
        return f"non-physical {self.role}: {self.reason} (margin {self.margin:.3e})"


@dataclass
class Payload:
    """Raw numeric content of a declaration before compilation.

    ``kind`` is one of ``choi``, ``kraus``, ``stoch``, ``vec``, ``dens``;
    ``data`` is an array (or, for ``kraus``, a list of arrays).
    """

    kind: str
    data: object

    KINDS = ("choi", "kraus", "stoch", "vec", "dens")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise OptlabError(f"unknown payload kind {self.kind!r}")


@dataclass
class Channel:
    """A compiled transformation: wire types plus the backend kernel."""

    input_type: SystemType
    output_type: SystemType
    kernel: np.ndarray


def _is_scratch_label(label: str) -> int | None:
    if label.startswith("@") and label[1:].isdigit() and int(label[1:]) >= 1:
        return int(label[1:])
    return None


class TheoryBackend(abc.ABC):
    """Shared machinery for the three concrete theories."""

    name: str = "?"
    locally_tomographic: bool = True

    def __init__(
        self,
        systems: Mapping[str, int] | None = None,
        boxes: Mapping[str, tuple[SystemType, SystemType, Payload]] | None = None,
        tol: Tolerances | None = None,
    ) -> None:
        self.tol = tol or Tolerances()
        self._systems: dict[str, int] = {}
        for label, dim in (systems or {}).items():
            if not isinstance(dim, int) or dim < 1:
                raise UnknownSystemError(f"system {label!r} needs a positive integer dimension")
            if _is_scratch_label(label) is not None:
                raise UnknownSystemError(f"label {label!r} is reserved for scratch systems")
            self._systems[label] = dim
        self._boxes: dict[str, Channel] = {}
        for box_name, (win, wout, payload) in (boxes or {}).items():
            self._boxes[box_name] = self.compile_payload(payload, win, wout)

    # ------------------------------------------------------------------
    # systems and dimensions
    # ------------------------------------------------------------------

    @property
    def systems(self) -> Mapping[str, int]:
        return dict(self._systems)

    def primitive_dim(self, label: str) -> int:
        if label in self._systems:
            return self._systems[label]
        scratch = _is_scratch_label(label)
        if scratch is not None:
            return scratch
        raise UnknownSystemError(f"undeclared system label {label!r}")

    def word_dims(self, word: SystemType) -> tuple[int, ...]:
        return tuple(self.primitive_dim(label) for label in word)

    def hilbert_dim(self, word: SystemType) -> int:
        """Composite carrier dimension: product of per-primitive dimensions."""
        out = 1
        for d in self.word_dims(word):
            out *= d
        return out

    @abc.abstractmethod
    def state_dim(self, word: SystemType) -> int:
        """Dimension of the real coordinate space of states on ``word``."""

    def scratch_system(self, dim: int) -> SystemType:
        """The reserved system word for a constructed auxiliary of size ``dim``."""
        return SystemType((f"@{dim}",))

    # ------------------------------------------------------------------
    # box registry
    # ------------------------------------------------------------------

    @property
    def boxes(self) -> Mapping[str, Channel]:
        return dict(self._boxes)

    def resolves_box(self, name: str) -> bool:
        return name in self._boxes or name.startswith("trace:")

    def box_channel(self, name: str) -> Channel:
        try:
            return self._boxes[name]
        except KeyError:
            raise UnknownBoxError(f"no box named {name!r} declared on backend {self.name}") from None

    # ------------------------------------------------------------------
    # compilation and physicality
    # ------------------------------------------------------------------

    def compile_payload(
        self,
        payload: Payload,
        input_type: SystemType,
        output_type: SystemType,
        check: bool = True,
    ) -> Channel:
        """Compile a payload to a kernel, certifying physicality by default."""
        ch = self._channel_from_payload(payload, input_type, output_type)
        if check:
            cert = self.certify_channel(ch)
            if not cert.physical:
                raise NotPhysicalError(cert)
        return ch

    @abc.abstractmethod
    def _channel_from_payload(
        self, payload: Payload, input_type: SystemType, output_type: SystemType
    ) -> Channel:
        ...

    @abc.abstractmethod
    def certify_channel(self, ch: Channel) -> PhysicalityCertificate:
        ...

    @abc.abstractmethod
    def channel_from_transfer(self, t: TransferMatrix) -> Channel:
        """Recover a kernel from a transfer matrix, where that is faithful."""

    def _role(self, input_type: SystemType, output_type: SystemType) -> str:
        if input_type.is_unit and not output_type.is_unit:
            return "state"
        if output_type.is_unit and not input_type.is_unit:
            return "effect"
        return "transformation"

    # ------------------------------------------------------------------
    # kernel algebra used by the evaluator
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def kernel_identity(self, word: SystemType) -> np.ndarray:
        ...

    @abc.abstractmethod
    def kernel_swap(self, left: SystemType, right: SystemType) -> np.ndarray:
        ...

    def kernel_seq(self, first: Channel, second: Channel) -> np.ndarray:
        return second.kernel @ first.kernel

    @abc.abstractmethod
    def kernel_par(self, left: Channel, right: Channel) -> np.ndarray:
        ...

    @abc.abstractmethod
    def apply_first(
        self,
        kernels: np.ndarray,
        input_word: SystemType,
        output_word: SystemType,
        state: StateVector,
    ) -> np.ndarray:
        """Coordinates of ``(k * id)(state)`` for each of a stack of kernels.

        ``kernels`` has shape ``(count, rows, cols)`` and each acts
        ``input_word -> output_word``; ``state`` lives on
        ``input_word * ref``.  Returns shape
        ``(count, state_dim(output_word * ref))``, without building any
        joint kernel.
        """

    @abc.abstractmethod
    def trace_channel(self, word: SystemType) -> Channel:
        """The unique deterministic effect (discard) as a channel to the unit."""

    @abc.abstractmethod
    def transfer_of(self, ch: Channel) -> TransferMatrix:
        ...

    # ------------------------------------------------------------------
    # states, effects, coordinates
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def state_coords(self, obj: np.ndarray, word: SystemType) -> np.ndarray:
        """Coordinates of a concrete state object (matrix or vector)."""

    @abc.abstractmethod
    def state_object(self, coords: np.ndarray, word: SystemType) -> np.ndarray:
        """Concrete state object from coordinates (inverse of state_coords)."""

    @abc.abstractmethod
    def effect_coords(self, obj: np.ndarray, word: SystemType) -> np.ndarray:
        ...

    @abc.abstractmethod
    def effect_object(self, coords: np.ndarray, word: SystemType) -> np.ndarray:
        ...

    @abc.abstractmethod
    def state_channel(self, obj: np.ndarray, word: SystemType) -> Channel:
        ...

    @abc.abstractmethod
    def effect_channel(self, obj: np.ndarray, word: SystemType) -> Channel:
        ...

    def channel_state(self, ch: Channel) -> StateVector:
        if not ch.input_type.is_unit:
            raise OptlabError("not a state-shaped channel (input is not the unit)")
        t = self.transfer_of(ch)
        return StateVector(t.matrix[:, 0], ch.output_type)

    def channel_effect(self, ch: Channel) -> EffectVector:
        if not ch.output_type.is_unit:
            raise OptlabError("not an effect-shaped channel (output is not the unit)")
        t = self.transfer_of(ch)
        return EffectVector(t.matrix[0, :], ch.input_type)

    def trace_effect(self, word: SystemType) -> EffectVector:
        return self.channel_effect(self.trace_channel(word))

    @abc.abstractmethod
    def uniform_state(self, word: SystemType) -> StateVector:
        """Maximally mixed / uniform state on the word."""

    @abc.abstractmethod
    def spanning_states(self, word: SystemType) -> list[StateVector]:
        ...

    @abc.abstractmethod
    def spanning_effects(self, word: SystemType) -> list[EffectVector]:
        ...

    # ------------------------------------------------------------------
    # scalars
    # ------------------------------------------------------------------

    def prob(self, value, tol: float | None = None) -> float:
        """Check a scalar lies in [0, 1] up to tolerance; return it unclamped."""
        if isinstance(value, TransferMatrix):
            if value.shape != (1, 1):
                raise OptlabError(f"not a scalar transfer matrix: shape {value.shape}")
            value = value.matrix[0, 0]
        if isinstance(value, Channel):
            value = self.transfer_of(value).matrix[0, 0]
        value = float(value)
        tol = self.tol.eigenvalue_floor if tol is None else tol
        if value < -tol or value > 1.0 + tol:
            raise OutOfRangeError(value, tol)
        return value
