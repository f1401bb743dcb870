"""Backend interface: concrete theories plug in here.

A backend fixes, for every system word, a real coordinate space for states
and effects, and compiles box payloads to *kernels* — the internal linear
form the evaluator composes.  Transfer matrices (real, rows indexed by the
output coordinates, columns by the input coordinates) are extracted from
kernels at the boundary.

Backends are immutable after construction: the system table is fixed, and
every exposed array is freshly allocated or treated as read-only.  Boxes are
not registered here; a workbench's bindings map box names to channels.

System labels of the reserved form ``@<n>`` denote scratch systems of
dimension ``n`` (purifying systems, dilation environments, readout
pointers); every backend resolves them without declaration.

Every theory-specific operation lives in a backend: the evaluator, the
audits, tomography and the sampler reach the theory only through backend
methods.  Adding a theory means writing the 30 abstract members below; a
class that lacks one cannot be instantiated.  An *object* is a state or
effect in the theory's own form (a vector on the classical theory, a matrix
otherwise).

* Dimensions and compilation: ``state_dim``, ``_channel_from_payload``,
  ``certify_channel``, ``channel_from_transfer``; ``deterministic_residual``
  (how far a channel is from preserving normalization) and ``weight_terms``
  (the names of a state's smallest weight and its normalization in reports).
* Kernels: ``legs_per_wire`` (a kernel column on a word of k wires is a
  tensor with ``legs_per_wire * k`` legs: a row and a column index per wire
  on the operator-space kernels, one index on the stochastic ones),
  ``apply_first``, ``transfer_of``.
* Objects: ``state_coords``/``state_object``, ``state_channel``/
  ``effect_channel``; ``channel_choi`` (a transformation's positive
  representative); ``conjugation_channel`` (the channel of a reversible or
  isometric matrix); ``partial_trace``; ``diagonal`` (the object with
  classical weights ``p``: pointer states and the unit effect);
  ``spanning_states``.
* Extremality: ``extremal_decomposition`` splits an object or a
  ``channel_choi`` into pure pieces (an ``Extremal``).
* Purification: ``purification`` gives a pure extension and the wing
  dimension, or raises ``BackendLacksPurificationError``;
  ``pure_connection`` gives the matrix of a reversible map on the wing
  between two pure objects, and the gap between their marginals;
  ``steering_effects`` gives wing effects steering a pure object to each
  branch, and the completion to the unit effect; ``faithful_probe`` extends
  the uniform state so that it separates transformations.  A pure
  realization (dilation) of a transformation is the purification of its
  ``channel_choi``, so a theory writes nothing more for it.
* Random draws, each from a generator in a fixed order: ``random_state``,
  ``random_effect``, ``random_channels``, ``random_reversible``,
  ``random_povm``, ``random_preparation`` and ``random_instrument``.

A theory also sets the class flags ``purifies`` and ``pair_payloads``; a
purifying theory adds ``basis`` (the operator basis that spans Choi
matrices) and ``channel_from_choi``.  ``gaussian`` and ``project_scalars``
default to real scalars.

The base class derives the rest, the same way for every theory:
``kernel_par`` places each leg of the left kernel before the matching leg of
the right one, so it is the Kronecker product reordered to the composite
legs; ``apply_par`` applies a ``Par``, ``Identity`` or ``Swap`` term to a
stack of kernel columns leaf by leaf, each leaf's small kernel on its own
legs (a nested ``Par`` part is opened into its own parts unless it is
effect-shaped; identities are skipped and swaps only move legs), and never
builds the layer's kernel; ``kernel_identity`` and ``kernel_swap`` are the
``conjugation_channel`` kernels of the identity and of
``linalg.swap_unitary``; ``trace_channel`` is the ``effect_channel`` of
``diagonal`` of ones (the discard); ``uniform_state`` is ``state_coords`` of
``diagonal`` of ``1/d``; ``effect_coords``/``effect_object`` are the state
forms and ``spanning_effects`` re-wraps ``spanning_states``, because every
theory here is self-dual; ``identity``, ``par``, ``state_as_channel`` and
``trace_effect`` (computed once per word and handed out read-only) are built
on those.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .. import linalg
from ..diagram import Diagram, Identity, Par, Swap, SystemType
from ..errors import (
    NotPhysicalError,
    OptlabError,
    OutOfRangeError,
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
    "Extremal",
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


@dataclass
class Extremal:
    """An object split into ``rank`` pure pieces of the given ``weights``.

    ``witness`` is a two-piece refinement when ``rank > 1``.  On the matrix
    theories the columns of ``amplitudes`` are the pieces' vectors
    ``sqrt(w) v``, heaviest first (past ``rank`` they are negligible); on
    the classical theory a pure object is its own single column.
    """

    rank: int
    weights: list[float]
    witness: dict | None
    amplitudes: np.ndarray | None = None


def _is_scratch_label(label: str) -> int | None:
    if label.startswith("@") and label[1:].isdigit() and int(label[1:]) >= 1:
        return int(label[1:])
    return None


class TheoryBackend(abc.ABC):
    """Shared machinery for the three concrete theories."""

    name: str = "?"
    purifies: bool = True  # every state has a pure extension
    pair_payloads: bool = True  # payload entries may be written as [re,im] pairs
    tol = Tolerances()

    def __init__(self, systems: Mapping[str, int] | None = None) -> None:
        self._trace_effects: dict[SystemType, np.ndarray] = {}
        self._systems: dict[str, int] = {}
        for label, dim in (systems or {}).items():
            if not isinstance(dim, int) or dim < 1:
                raise UnknownSystemError(f"system {label!r} needs a positive integer dimension")
            if _is_scratch_label(label) is not None:
                raise UnknownSystemError(f"label {label!r} is reserved for scratch systems")
            self._systems[label] = dim

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

    @property
    @abc.abstractmethod
    def legs_per_wire(self) -> int:
        """Kernel legs per wire: a row and a column index on operator-space
        kernels, one index on stochastic ones."""

    @property
    @abc.abstractmethod
    def weight_terms(self) -> tuple[str, str]:
        """Report names of a state's smallest weight and of its normalization."""

    def scratch_system(self, dim: int) -> SystemType:
        """The reserved system word for a constructed auxiliary of size ``dim``."""
        return SystemType((f"@{dim}",))

    # ------------------------------------------------------------------
    # compilation and physicality
    # ------------------------------------------------------------------

    def compile_payload(
        self,
        payload: Payload,
        input_type: SystemType,
        output_type: SystemType,
    ) -> Channel:
        """Compile a payload to a kernel and certify its physicality."""
        ch = self._channel_from_payload(payload, input_type, output_type)
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

    @abc.abstractmethod
    def deterministic_residual(self, ch: Channel) -> float:
        """How far the channel is from preserving normalization."""

    def _role(self, input_type: SystemType, output_type: SystemType) -> str:
        if input_type.is_unit and not output_type.is_unit:
            return "state"
        if output_type.is_unit and not input_type.is_unit:
            return "effect"
        return "transformation"

    # ------------------------------------------------------------------
    # kernel algebra used by the evaluator
    # ------------------------------------------------------------------

    def kernel_identity(self, word: SystemType) -> np.ndarray:
        d = self.hilbert_dim(word)
        return self.conjugation_channel(np.eye(d), word).kernel

    def kernel_swap(self, left: SystemType, right: SystemType) -> np.ndarray:
        u = linalg.swap_unitary(self.hilbert_dim(left), self.hilbert_dim(right))
        return self.conjugation_channel(u, left * right, right * left).kernel

    def kernel_seq(self, first: Channel, second: Channel) -> np.ndarray:
        return second.kernel @ first.kernel

    def apply_par(
        self, layer: Diagram, stack: np.ndarray, channel_of: Callable[[Diagram], Channel]
    ) -> np.ndarray:
        """``layer`` applied leg by leg to each row of ``stack``.

        ``stack`` has shape ``(count, K)``: ``count`` kernel columns on
        ``layer.input_type``, each viewed as ``legs_per_wire`` legs per wire.
        ``layer`` is a ``Par``, an ``Identity`` or a ``Swap``.  A ``Par`` is
        opened into its leaves, and so is each nested ``Par`` part that is
        not effect-shaped, so a nested layer runs exactly as its flat form.
        Each leaf contracts its own kernel, ``channel_of(leaf).kernel``, into
        its wires' legs; ``Identity`` leaves are skipped, ``Swap`` leaves
        permute legs, and states and effects add and remove legs.  No kernel
        on the whole word is built.  Every column goes through its own
        product of equal shape, so a column's result does not depend on how
        many columns are stacked with it.  Returns shape ``(count, K')`` on
        ``layer.output_type``.
        """
        legs, count = self.legs_per_wire, len(stack)
        t = stack.reshape(count, *self.word_dims(layer.input_type) * legs)
        wires = len(layer.input_type)

        def axes(start: int, width: int) -> list[int]:
            """Axes of ``width`` wires from ``start``, in every leg group."""
            return [1 + g * wires + start + j for g in range(legs) for j in range(width)]

        pos = 0  # wires before pos are outputs of done leaves; from pos on, inputs of the rest
        todo = [layer]  # the leaves still to apply, the next one last
        while todo:
            leaf = todo.pop()
            if isinstance(leaf, Par) and not leaf.output_type.is_unit:
                todo.extend(reversed(leaf.parts))
                continue
            m, n = len(leaf.input_type), len(leaf.output_type)
            if isinstance(leaf, Swap):  # the right block's legs move before the left block's
                right = len(leaf.right)
                t = np.moveaxis(t, axes(pos + m - right, right), axes(pos, right))
            elif not isinstance(leaf, Identity):
                kernel = channel_of(leaf).kernel
                moved = np.moveaxis(t, axes(pos, m), range(1, 1 + legs * m))
                out = np.matmul(kernel, moved.reshape(count, kernel.shape[1], -1))
                rest = moved.shape[1 + legs * m:]
                out = out.reshape(count, *self.word_dims(leaf.output_type) * legs, *rest)
                wires += n - m
                t = np.moveaxis(out, range(1, 1 + legs * n), axes(pos, n))
            pos += n
        return t.reshape(count, -1)

    def kernel_par(self, left: Channel, right: Channel) -> np.ndarray:
        """Dense kernel of ``left`` beside ``right``: each of ``left``'s legs
        is placed before the matching leg of ``right``, one product per entry."""
        legs = self.legs_per_wire
        lo, li, ro, ri = (self.hilbert_dim(w) for w in (
            left.output_type, left.input_type, right.output_type, right.input_type))
        a = left.kernel.reshape(*[lo, 1] * legs, *[li, 1] * legs)
        b = right.kernel.reshape(*[1, ro] * legs, *[1, ri] * legs)
        return (a * b).reshape(len(left.kernel) * len(right.kernel), -1)

    def identity(self, word: SystemType) -> Channel:
        return Channel(word, word, self.kernel_identity(word))

    def par(self, left: Channel, right: Channel) -> Channel:
        """Side-by-side composite, ``left`` first."""
        return Channel(
            left.input_type * right.input_type,
            left.output_type * right.output_type,
            self.kernel_par(left, right),
        )

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

    def trace_channel(self, word: SystemType) -> Channel:
        """The unique deterministic effect (discard) as a channel to the unit."""
        return self.effect_channel(self.diagonal(np.ones(self.hilbert_dim(word))), word)

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

    def effect_coords(self, obj: np.ndarray, word: SystemType) -> np.ndarray:
        return self.state_coords(obj, word)

    def effect_object(self, coords: np.ndarray, word: SystemType) -> np.ndarray:
        return self.state_object(coords, word)

    @abc.abstractmethod
    def state_channel(self, obj: np.ndarray, word: SystemType) -> Channel:
        ...

    @abc.abstractmethod
    def effect_channel(self, obj: np.ndarray, word: SystemType) -> Channel:
        ...

    def state_as_channel(self, state: StateVector) -> Channel:
        """The preparation of a state: the inverse of ``channel_state``."""
        return self.state_channel(self.state_object(state.coords, state.system), state.system)

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
        coords = self._trace_effects.get(word)
        if coords is None:
            coords = self.channel_effect(self.trace_channel(word)).coords
            coords.flags.writeable = False
            self._trace_effects[word] = coords
        return EffectVector(coords, word)

    @abc.abstractmethod
    def channel_choi(self, ch: Channel) -> np.ndarray: ...

    @abc.abstractmethod
    def conjugation_channel(self, u, input_word, output_word=None) -> Channel: ...

    @abc.abstractmethod
    def partial_trace(self, obj, dims: list[int], keep: list[int]) -> np.ndarray: ...

    @abc.abstractmethod
    def diagonal(self, p: np.ndarray) -> np.ndarray: ...

    def project_scalars(self, x: np.ndarray) -> np.ndarray:
        """``x`` on the theory's scalar field: real theories keep the real part."""
        return np.ascontiguousarray(np.real(x))

    def uniform_state(self, word: SystemType) -> StateVector:
        """Maximally mixed / uniform state on the word."""
        d = self.hilbert_dim(word)
        return StateVector(self.state_coords(self.diagonal(np.full(d, 1.0 / d)), word), word)

    @abc.abstractmethod
    def spanning_states(self, word: SystemType) -> list[StateVector]:
        ...

    def spanning_effects(self, word: SystemType) -> list[EffectVector]:
        return [EffectVector(s.coords, word) for s in self.spanning_states(word)]

    # ------------------------------------------------------------------
    # extremality and purification
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def extremal_decomposition(self, obj) -> Extremal: ...

    @abc.abstractmethod
    def purification(self, obj, dec: Extremal) -> tuple[np.ndarray, int]: ...

    @abc.abstractmethod
    def pure_connection(self, first, second, base_dim, ext_dim) -> tuple[np.ndarray, float]: ...

    @abc.abstractmethod
    def steering_effects(self, psi, branches, base_dim, ext_dim, labels, tol) -> tuple: ...

    @abc.abstractmethod
    def faithful_probe(self, word: SystemType) -> StateVector: ...

    # ------------------------------------------------------------------
    # random draws
    # ------------------------------------------------------------------

    def gaussian(self, rng: np.random.Generator, *shape: int) -> np.ndarray:
        """Gaussian matrices of shape ``(..., rows, cols)`` over the scalars."""
        return rng.normal(size=shape)

    def random_unitary(self, rng: np.random.Generator, d: int) -> np.ndarray:
        q, r = np.linalg.qr(self.gaussian(rng, d, d))
        phases = np.diagonal(r).copy()
        phases[np.abs(phases) == 0] = 1.0
        return q * (phases / np.abs(phases))

    def density_matrix(self, rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
        g = self.gaussian(rng, d, rank or d)
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    def simplex_weights(self, rng: np.random.Generator, k: int) -> np.ndarray:
        w = rng.exponential(size=k)
        return w / w.sum()

    @abc.abstractmethod
    def random_state(self, rng, word, rank=None) -> StateVector: ...

    @abc.abstractmethod
    def random_effect(self, rng, word) -> EffectVector: ...

    @abc.abstractmethod
    def random_channels(self, rng, input_word, output_word, count) -> np.ndarray: ...

    @abc.abstractmethod
    def random_reversible(self, rng, word) -> Channel: ...

    @abc.abstractmethod
    def random_povm(self, rng, word, k) -> list[np.ndarray]: ...

    @abc.abstractmethod
    def random_preparation(self, rng, word, k) -> list[np.ndarray]: ...

    @abc.abstractmethod
    def random_instrument(self, rng, input_word, output_word, k) -> list[Channel]: ...

    # ------------------------------------------------------------------
    # scalars
    # ------------------------------------------------------------------

    def prob(self, value: float) -> float:
        """Check a scalar lies in [0, 1] up to tolerance; return it unclamped."""
        value = float(value)
        tol = self.tol.eigenvalue_floor
        if value < -tol or value > 1.0 + tol:
            raise OutOfRangeError(value, tol)
        return value
