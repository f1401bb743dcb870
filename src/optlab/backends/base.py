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
methods.  Adding a theory means writing the 23 abstract members below; a
class that lacks one cannot be instantiated.  An *object* is a state or
effect in the theory's own form (a vector on the classical theory, a matrix
otherwise).  This checklist puts exactly those members in double backquotes.

* Dimensions and compilation: ``state_dim``, ``_payload_kernels`` (the
  kernels in Liouville order of a group of payloads of one kind and shape,
  built by array calls on the whole group, as ``state_channel`` and
  ``effect_channel`` build them for vec and dens payloads),
  ``check_kernels`` (the physicality check of a stack of same-shape kernels
  in Liouville order, with each kernel's full certificate on request);
  ``deterministic_residual`` (how far a channel is from preserving
  normalization).
* Kernels: ``legs_per_wire`` (a kernel index on a word is wire-major: one
  block of ``d ** legs_per_wire`` entries per wire of dimension d, a
  row and a column index on the operator-space kernels, one index on the
  stochastic ones),
  ``transfer_matrices`` (of a stack of kernels, each through products of
  its own).
* Objects: ``state_coords``/``state_object``, ``state_channel``/
  ``effect_channel``; ``channel_choi`` (a transformation's positive
  representative); ``conjugation_channel`` (the channel of a reversible or
  isometric matrix); ``partial_trace``; ``diagonal`` (the object with
  classical weights p: pointer states and the unit effect);
  ``spanning_states`` (one array, a member's coordinates per row; the rows
  are also effects, because every theory here is self-dual).
* Extremality: ``extremal_decompositions`` splits each of a stack of
  objects or ``channel_choi`` matrices into pure pieces (an Extremal).
* Purification: ``purifications`` gives pure extensions of a stack of
  objects of one rank and the wing dimension, or raises
  BackendLacksPurificationError;
  ``pure_connection`` gives the matrix of a reversible map on the wing
  between two pure objects, and the gap between their marginals;
  ``steering_effects`` gives wing effects steering a pure object to each
  branch, and the completion to the unit effect; ``faithful_probe`` extends
  the uniform state so that it separates transformations.  A pure
  realization (dilation) of a transformation is the purification of its
  ``channel_choi``, so a theory writes nothing more for it.
* Random draws, each from a generator in a fixed order: ``random_channels``;
  ``drawn_states`` and ``drawn_povms`` turn a stack of the numbers of random
  states or observation tests, as the base class draws them for many trials
  in one call, into state coordinates or effect objects.

A theory also sets the class flags ``purifies`` and ``pair_payloads``; a
purifying theory adds ``channel_from_choi``.  ``gaussian`` and ``project_scalars``
default to real scalars, ``state_draws`` and ``povm_draws`` to Gaussian
matrices over the scalars, and ``random_unitary`` to a Haar matrix over them.

The base class derives the rest, the same way for every theory:
``compile_payloads`` compiles many payloads in groups of one kind and
shape, each group's kernels as one stack certified by one ``check_kernels``
call; ``compile_payload`` and
``certify_channel`` are its one-item cases; likewise ``transfer_of``,
``extremal_decomposition`` and ``purification`` are the one-item cases of
the stacked members above;
``kernel_par`` is the Kronecker product (of every pair, when the kernels
are stacks of a test's branches), because the blocks of a composite word
are its parts' blocks in turn; ``apply_par`` applies a layer, a list of
``Identity`` and ``Swap`` terms and channels in wire order, to a stack of
kernels leaf by leaf, each channel's small kernel on its own blocks through a
reshape view (identities are skipped, swaps exchange blocks, and a channel
whose kernel stacks a test's branch kernels gives each kernel one per
outcome), and never builds the layer's kernel; the evaluator opens terms
into those leaves, and the audits hand them over directly, a channel beside
``Identity(ref)``; ``apply_first`` acts beside a reference system: one
``apply_par`` of ``[channel, Identity(ref)]`` on a state's kernel column, the
channel's kernel the stack of kernels, read out by one ``transfer_matrices``
call; payload compilation and ``certify_channel`` move kernels between
wire-major and Liouville order (``linalg``), where a theory needs the latter;
``kernel_identity`` is the ``conjugation_channel`` kernel of the identity,
``random_reversible`` the ``conjugation_channel`` of a ``random_unitary``,
and ``kernel_swap`` is one ``apply_par`` of a ``Swap`` on the identity
kernel's rows; ``trace_channel`` is the ``effect_channel`` of
``diagonal`` of ones (the discard); ``uniform_state`` is ``state_coords`` of
``diagonal`` of ``1/d``; ``effect_coords``/``effect_object`` are the state
forms, because every theory here is self-dual; ``identity``, ``par``,
``state_as_channel`` and ``trace_effect`` (computed once per word and handed
out read-only) are built on those.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..diagram import UNIT, Identity, Swap, SystemType
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


@dataclass(frozen=True)
class Payload:
    """Raw numeric content of a declaration before compilation.

    ``kind`` is one of ``choi``, ``kraus``, ``stoch``, ``vec``, ``dens``;
    ``data`` is anything ``np.asarray`` reads as the array (for ``kraus``,
    a sequence of them): a theory file gives nested tuples.
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
        self._orders: dict[SystemType, tuple[np.ndarray, np.ndarray]] = {}
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
        return tuple(map(self.primitive_dim, word.word))

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
        kernels, one index on stochastic ones; a wire's block of a kernel
        index has ``d ** legs_per_wire`` entries."""

    def scratch_system(self, dim: int) -> SystemType:
        """The reserved system word for a constructed auxiliary of size ``dim``."""
        return SystemType((f"@{dim}",))

    # ------------------------------------------------------------------
    # compilation and physicality
    # ------------------------------------------------------------------

    def compile_payloads(
        self, items: Sequence[tuple[Payload, SystemType, SystemType]]
    ) -> list[Channel | OptlabError]:
        """Compile ``(payload, input_type, output_type)`` items and certify
        their physicality, without raising.

        Each item gives its channel, or the error ``compile_payload`` raises
        for it.  Items are grouped by payload kind, role, dimensions and the
        length of their data before any array is built; a group's literals
        become one array and its kernels one stack.  A group whose data do
        not make one array of its shape is compiled item by item, so each
        item raises the error it raises alone.  A kernel with a non-finite
        entry, from a NaN or infinite payload entry or from entries whose
        products overflow, is refused first.  The stacks of one shape go
        through one ``check_kernels`` call, and only a kernel that fails
        gets its full certificate; one take per word pair puts the rest in
        wire-major order."""
        out: list = [None] * len(items)
        groups: dict[tuple, list[int]] = {}
        shapes: dict[tuple, tuple[str, int, int]] = {}  # (input, output) -> role and dimensions
        for k, (payload, input_type, output_type) in enumerate(items):
            shape = shapes.get((input_type, output_type))
            if shape is None:
                try:
                    dims = self.hilbert_dim(input_type), self.hilbert_dim(output_type)
                except OptlabError as e:
                    out[k] = e
                    continue
                role = "state" if input_type.is_unit else "effect" if output_type.is_unit else "box"
                shape = shapes[input_type, output_type] = (role, *dims)
            length = len(payload.data) if isinstance(payload.data, (list, tuple)) else None
            groups.setdefault((payload.kind, *shape, length), []).append(k)
        pending = list(groups.items())
        stacks: dict[tuple[int, int], list[tuple[list[int], np.ndarray]]] = {}
        for (kind, role, din, dout, _), at in pending:  # the loop takes what it appends
            try:
                kernels, faults = self._payload_kernels(
                    kind, [items[k][0].data for k in at], din, dout, role)
            except (OptlabError, ValueError) as e:
                if len(at) > 1:  # some item does not fit: regroup by each item's shape, or split
                    split: dict = {}
                    for k in at:
                        try:
                            split.setdefault(np.shape(items[k][0].data), []).append(k)
                        except ValueError:  # ragged data
                            split[k] = [k]
                    parts = split.values() if len(split) > 1 else [[k] for k in at]
                    pending.extend(((kind, role, din, dout, None), part) for part in parts)
                elif isinstance(e, OptlabError):
                    out[at[0]] = e
                else:
                    raise
                continue
            if not np.isfinite(kernels).all():
                finite = np.isfinite(kernels).all(axis=(-2, -1))
                for i in np.flatnonzero(~finite).tolist():
                    faults.setdefault(i, OptlabError(f"{kind} payload has non-finite entries"))
            for i, e in faults.items():
                out[at[i]] = e
            if faults:
                keep = [i for i in range(len(at)) if i not in faults]
                at, kernels = [at[i] for i in keep], kernels[keep]
            if at:
                stacks.setdefault((din, dout), []).append((at, kernels))
        # the groups of one shape are certified together, in one call
        for (din, dout), parts in stacks.items():
            at = [k for part, _ in parts for k in part]
            kernels = parts[0][1] if len(parts) == 1 else np.concatenate([ks for _, ks in parts])
            physical, certificate = self.check_kernels(kernels, din, dout)
            pairs: dict[tuple, list[int]] = {}
            for i, k in enumerate(at):
                _, input_type, output_type = items[k]
                if physical[i]:
                    pairs.setdefault((input_type, output_type), []).append(i)
                else:
                    out[k] = NotPhysicalError(certificate(i, self._role(input_type, output_type)))
            for (input_type, output_type), idx in pairs.items():
                stack = kernels if len(idx) == len(at) else kernels[idx]
                stack = self._reorder(stack, output_type, input_type)
                for i, kernel in zip(idx, stack):
                    out[at[i]] = Channel(input_type, output_type, kernel)
        return out

    def compile_payload(
        self,
        payload: Payload,
        input_type: SystemType,
        output_type: SystemType,
    ) -> Channel:
        """Compile a payload to a kernel and certify its physicality: the
        one-item case of ``compile_payloads``, raising its error."""
        (ch,) = self.compile_payloads([(payload, input_type, output_type)])
        if isinstance(ch, OptlabError):
            raise ch
        return ch

    @abc.abstractmethod
    def _payload_kernels(
        self, kind: str, data: Sequence, din: int, dout: int, role: str
    ) -> tuple[np.ndarray, dict[int, OptlabError]]:
        """The kernels, in Liouville order, of a group of payloads of one
        kind on ``din -> dout`` (``role`` is ``state``, ``effect`` or
        ``box``), ``data`` their data, as one stack built by array calls on
        the whole group; and the error of each item that fails on its own
        entries (on the real theory, complex ones), by its index.  Raises
        ``OptlabError`` (or ``ValueError``) when the data make no one array
        of the kind's shape: on a group of one, the item's own error."""

    def _reorder(self, kernel: np.ndarray, output_word: SystemType, input_word: SystemType,
                 inverse: bool = False) -> np.ndarray:
        """``kernel`` (or a stack of them) from Liouville to wire-major order,
        or back with ``inverse``; the kernel itself where the orders agree
        (one leg per wire, or at most one wire on each side)."""
        for axis, word in ((-2, output_word), (-1, input_word)):
            if len(word.word) > 1 and self.legs_per_wire > 1:
                order, back = self._wire_orders(word)
                kernel = np.take(kernel, back if inverse else order, axis=axis)
        return kernel

    def _wire_orders(self, word: SystemType) -> tuple[np.ndarray, np.ndarray]:
        """The Liouville position of each wire-major index of ``word``, and
        the inverse permutation; cached."""
        if word not in self._orders:
            dims, legs, k = self.word_dims(word), self.legs_per_wire, len(word)
            order = np.arange(math.prod(dims) ** legs).reshape(dims * legs).transpose(
                [g * k + q for q in range(k) for g in range(legs)]).reshape(-1)
            self._orders[word] = order, np.argsort(order)
        return self._orders[word]

    def _wire_major(self, ch: Channel) -> Channel:
        """``ch`` with its Liouville-order kernel put in wire-major order."""
        kernel = self._reorder(ch.kernel, ch.output_type, ch.input_type)
        return ch if kernel is ch.kernel else Channel(ch.input_type, ch.output_type, kernel)

    @abc.abstractmethod
    def check_kernels(
        self, kernels: np.ndarray, din: int, dout: int
    ) -> tuple[np.ndarray, Callable[[int, str], PhysicalityCertificate]]:
        """The physicality check of a stack of kernels ``din -> dout`` in
        Liouville order: kernels of one shape may sit on words whose wires
        differ (``A*B`` and ``B*A``), so they are checked before they are put
        in wire-major order.

        Returns a boolean array, True where a kernel is physical, and
        ``certificate(i, role)``, the full certificate of kernel ``i``
        (with its witness when it fails).  Each kernel's verdict and
        certificate are those it gets alone in a stack of one."""

    def certify_channel(self, ch: Channel) -> PhysicalityCertificate:
        """The full certificate of one channel: ``check_kernels`` on a stack
        of one, its kernel put back in Liouville order."""
        dims = self.hilbert_dim(ch.input_type), self.hilbert_dim(ch.output_type)
        kernel = self._reorder(np.asarray(ch.kernel), ch.output_type, ch.input_type, inverse=True)
        _, certificate = self.check_kernels(kernel[None], *dims)
        return certificate(0, self._role(ch.input_type, ch.output_type))

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
        return self.apply_par([Swap(left, right)], self.kernel_identity(left * right)[None])[0]

    def apply_par(self, leaves: Sequence[Identity | Swap | Channel], stack: np.ndarray) -> np.ndarray:
        """A layer of ``leaves`` side by side applied block by block to each
        of a stack of kernels.

        ``leaves`` are ``Identity`` and ``Swap`` terms and ``Channel`` objects
        in wire order; the layer's input word is their input words in turn.
        ``stack`` has shape ``(count, K, ...)``: ``count`` kernels whose rows
        are on that word; further axes are carried along, so kernel columns
        stack as ``(count, K)`` and one kernel is ``(1, K, cols)``.  Each
        channel applies its kernel to its wires' blocks through a reshape
        view and one ``matmul``; ``Identity`` leaves are skipped, ``Swap``
        leaves exchange two runs of blocks, and states and effects add and
        remove blocks.  A channel's kernel may be a stack, one kernel per
        branch of a test, ``(branches, rows, cols)``: it turns each kernel
        into one per branch, the branch index inner.  No kernel on the whole
        word is built.  Every kernel goes through products of equal shape
        with each branch, so a result does not depend on how many kernels or
        branches are stacked with it.  Returns shape ``(count *
        branches..., K', ...)`` on the layer's output word.
        """
        count, tail, legs = len(stack), stack.shape[2:], self.legs_per_wire
        blocks = [d ** legs for leaf in leaves for d in self.word_dims(leaf.input_type)]
        steps = []  # (kernel, or None for a swap; size of the blocks before; sizes of the leaf's runs)
        branches, widths = 1, [math.prod(blocks)]  # entries per input kernel, then after each step
        pos = 0  # wires before pos are outputs of done leaves; from pos on, inputs of the rest
        for leaf in leaves:
            if isinstance(leaf, Identity):
                pos += len(leaf.system.word)
                continue
            m, n = len(leaf.input_type.word), len(leaf.output_type.word)
            run, pos = blocks[pos:pos + m], pos + n
            before = math.prod(blocks[:pos - n])
            if isinstance(leaf, Swap):  # the right run of blocks moves before the left run
                left = m - len(leaf.right)
                steps.append((None, before, (math.prod(run[:left]), math.prod(run[left:]))))
                blocks[pos - n:pos - n + m] = run[left:] + run[:left]
            else:
                kernel = leaf.kernel.reshape(-1, 1, *leaf.kernel.shape[-2:])  # (branches, 1, rows, cols)
                steps.append((kernel, before, (math.prod(run),)))
                blocks[pos - n:pos - n + m] = [d ** legs for d in self.word_dims(leaf.output_type)]
                branches *= len(kernel)
            widths.append(branches * math.prod(blocks))
        if not steps:
            return stack
        # groups of kernels take the steps in turn, the last step writing into the result;
        # the products between steps of a group take at most half as much as the stack
        inner = widths[1:-1]
        held = max(a + b for a, b in zip([0] + inner, inner + [0]))
        part = max(1, count * widths[0] // (2 * held)) if held else count
        kernels = [kernel for kernel, _, _ in steps if kernel is not None]
        out = np.empty((count * branches, math.prod(blocks), *tail), np.result_type(stack, *kernels))
        for lo in range(0, count, part):
            t = stack[lo:lo + part]
            n, dest = len(t), out[lo * branches:(lo + len(t)) * branches]
            for k, (kernel, before, sizes) in enumerate(steps):
                if kernel is None:
                    t = t.reshape(n, before, *sizes, -1).swapaxes(2, 3)
                else:
                    view = t.reshape(n, 1, before, *sizes, -1)
                    last = k == len(steps) - 1
                    into = dest.reshape(n, len(kernel), before, -1, view.shape[-1]) if last else None
                    t = np.matmul(kernel, view, out=into)
                    n *= len(kernel)
            if kernel is None:
                np.copyto(dest.reshape(t.shape), t)
        return out

    def kernel_par(self, left: Channel, right: Channel) -> np.ndarray:
        """Dense kernel of ``left`` beside ``right``: their Kronecker product,
        one product per entry.  A kernel may also be a stack ``(branches,
        rows, cols)``, one kernel per branch of a test; the result then
        stacks the kernels of every pair of branches, ``left``'s major."""
        (lr, lc), (rr, rc) = left.kernel.shape[-2:], right.kernel.shape[-2:]
        a = left.kernel.reshape(-1, 1, lr, 1, lc, 1)
        b = right.kernel.reshape(1, -1, 1, rr, 1, rc)
        stack = [-1] if max(left.kernel.ndim, right.kernel.ndim) > 2 else []
        return (a * b).reshape(*stack, lr * rr, lc * rc)

    def identity(self, word: SystemType) -> Channel:
        return Channel(word, word, self.kernel_identity(word))

    def par(self, left: Channel, right: Channel) -> Channel:
        """Side-by-side composite, ``left`` first."""
        return Channel(
            left.input_type * right.input_type,
            left.output_type * right.output_type,
            self.kernel_par(left, right),
        )

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
        ``input_word * ref``.  One ``apply_par`` of the stack as one
        channel's branches beside ``Identity(ref)`` on the state's kernel
        column, then one ``transfer_matrices`` call.  Returns shape
        ``(count, state_dim(output_word * ref))``, without building any
        joint kernel.
        """
        ref = SystemType(state.system.word[len(input_word):])
        column = self.state_as_channel(state).kernel[None]
        out = self.apply_par([Channel(input_word, output_word, kernels), Identity(ref)], column)
        return self.transfer_matrices(out, UNIT, output_word * ref)[:, :, 0]

    def trace_channel(self, word: SystemType) -> Channel:
        """The unique deterministic effect (discard) as a channel to the unit."""
        return self.effect_channel(self.diagonal(np.ones(self.hilbert_dim(word))), word)

    def transfer_of(self, ch: Channel) -> TransferMatrix:
        """The transfer matrix of one channel: ``transfer_matrices`` of a stack of one."""
        matrix = self.transfer_matrices(ch.kernel[None], ch.input_type, ch.output_type)[0]
        return TransferMatrix(matrix, ch.input_type, ch.output_type)

    @abc.abstractmethod
    def transfer_matrices(
        self, kernels: np.ndarray, input_type: SystemType, output_type: SystemType
    ) -> np.ndarray:
        """Transfer matrices of a stack of kernels ``(count, rows, cols)``, each
        ``input_type -> output_type``.  Each kernel goes through products of
        its own, so a result does not depend on what is stacked with it."""

    # ------------------------------------------------------------------
    # states, effects, coordinates
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def state_coords(self, obj: np.ndarray, word: SystemType) -> np.ndarray:
        """Coordinates of a concrete state object (matrix or vector), or of a stack."""

    @abc.abstractmethod
    def state_object(self, coords: np.ndarray, word: SystemType) -> np.ndarray:
        """Concrete state object from coordinates (inverse of state_coords);
        the objects of a stack of coordinates ``(count, state_dim)``."""

    def effect_coords(self, obj: np.ndarray, word: SystemType) -> np.ndarray:
        return self.state_coords(obj, word)

    def effect_object(self, coords: np.ndarray, word: SystemType) -> np.ndarray:
        return self.state_object(coords, word)

    @abc.abstractmethod
    def state_channel(self, obj: np.ndarray, word: SystemType) -> Channel:
        """The preparation channel of a state object; for a stack of objects,
        one channel whose kernel stacks theirs."""

    @abc.abstractmethod
    def effect_channel(self, obj: np.ndarray, word: SystemType) -> Channel:
        """The channel of an effect object; for a stack of objects, one
        channel whose kernel stacks theirs."""

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
    def partial_trace(self, obj, dims: list[int], keep: list[int]) -> np.ndarray:
        """Discard the factors of an object (or of each of a stack) not in ``keep``."""

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
    def spanning_states(self, word: SystemType) -> np.ndarray:
        """Coordinates of states spanning the word's state space, one member
        per row, shape ``(members, state_dim(word))``.  Every theory here is
        self-dual, so the rows are also the coordinates of spanning effects."""

    # ------------------------------------------------------------------
    # extremality and purification
    # ------------------------------------------------------------------

    def extremal_decomposition(self, obj) -> Extremal:
        """``extremal_decompositions`` of a stack of one."""
        return self.extremal_decompositions(np.asarray(obj)[None])[0]

    @abc.abstractmethod
    def extremal_decompositions(self, objs: np.ndarray) -> list[Extremal]:
        """The ``Extremal`` of each of a stack of objects of one shape."""

    def purification(self, obj, dec: Extremal) -> tuple[np.ndarray, int]:
        """``purifications`` of a stack of one."""
        pure, r = self.purifications(np.asarray(obj)[None], [dec])
        return pure[0], r

    @abc.abstractmethod
    def purifications(self, objs: np.ndarray, decs: Sequence[Extremal]) -> tuple[np.ndarray, int]:
        """Pure extensions of a stack of objects whose decompositions ``decs``
        share one rank of at least 1, stacked, and the dimension of their
        wing."""

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

    def state_draws(self, rng, word, count) -> np.ndarray:
        """The random numbers of ``count`` random states on ``word``, in one
        call: a Gaussian ``d x d`` matrix each, stacked."""
        d = self.hilbert_dim(word)
        return self.gaussian(rng, count, d, d)

    @abc.abstractmethod
    def drawn_states(self, draws: np.ndarray, word: SystemType) -> np.ndarray:
        """Coordinates ``(count, state_dim)`` of the states that a stack of
        ``state_draws`` on ``word`` make."""

    @abc.abstractmethod
    def random_channels(self, rng, input_word, output_word, count) -> np.ndarray: ...

    def random_reversible(self, rng, word) -> Channel:
        """The ``conjugation_channel`` of a ``random_unitary``."""
        return self.conjugation_channel(self.random_unitary(rng, self.hilbert_dim(word)), word)

    def povm_draws(self, rng, word, k) -> np.ndarray:
        """The random numbers of k effects on ``word``, one after another,
        stacked: one k-outcome observation test, or the tests whose counts
        add up to k.  Here k Gaussian ``d x d`` matrices."""
        d = self.hilbert_dim(word)
        return self.gaussian(rng, k, d, d)

    @abc.abstractmethod
    def drawn_povms(self, draws: np.ndarray) -> np.ndarray:
        """The effect objects ``(count, k, ...)`` of the k-outcome tests that a
        stack of ``povm_draws`` of one word make.  An effect whose numbers are
        all zero comes out zero, so tests of fewer outcomes pad to k."""

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
