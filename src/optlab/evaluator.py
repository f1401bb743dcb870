"""Compile circuit terms to transfer matrices and run test circuits.

Primitive boxes resolve to compiled kernels, identities and swaps come from
the backend's kernel algebra, parallel composition is the backend's dense
``kernel_par`` and sequential composition a kernel product.  Kernels rest in
wire-major order, one block of indices per wire (``TheoryBackend``).

There is one sequential walk, ``_chain``: it applies pieces in turn to a
stack of kernels, checking each piece's wires just before applying it.  A
:class:`~optlab.diagram.Seq` is a flat chain: its first part is evaluated
whole, and the walk applies every later part to that kernel, a stack of
one, from the left.  The evaluator alone opens terms: ``_chain`` opens
``Seq`` terms and ``test_seq`` tests, and ``_leaves`` opens ``Par`` terms and
``test_par`` tests, nested ones too, into the identities, swaps and channels
that ``TheoryBackend.apply_par`` applies block by block, so no layer kernel
on the whole word is built.  A ``Par`` that stands alone or starts a chain
is built densely, folding its parts from the left, which is its written
association.  Neither long ``;`` nor long ``*`` chains recurse.

Results are memoized per call, keyed by the whole term (terms are immutable
and hash structurally in O(1)), so a term repeated in a circuit or across a
test's branches is evaluated once.

:func:`run_test_circuit` evaluates a test's component tree through the same
walk, as one stack of kernel columns, one per outcome in label order, and
never lists the branches.  A ``test_par`` of preparations combines its
parts' branch columns by ``kernel_par``, as a lone branch's dense head does;
each later piece goes through ``apply_par`` once for the whole stack, a
test's stacked branch kernels giving each column one per outcome, and a test
given by its branches applies each branch to the whole stack.  Every column
goes through products of the same shape as in a lone chain, so each
outcome's probability is the one :func:`evaluate` gives its branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping

import numpy as np

from .backends.base import Channel, TheoryBackend, TransferMatrix
from .diagram import (
    Diagram,
    Identity,
    Par,
    PrimitiveBox,
    Seq,
    Swap,
    SystemType,
    Test,
    UNIT,
)
from .errors import (
    NormalizationViolationError,
    TypeMismatchError,
    UnknownBoxError,
)

__all__ = [
    "evaluate",
    "evaluate_channel",
    "run_test_circuit",
    "OutcomeDistribution",
    "trace_box",
]


def trace_box(word: SystemType) -> PrimitiveBox:
    """The built-in discard box on a word; every backend resolves it."""
    return PrimitiveBox(f"trace:{word}", word, UNIT)


def _resolve_box(
    box: PrimitiveBox, backend: TheoryBackend, bindings: Mapping[str, Channel] | None
) -> Channel:
    if bindings is not None and box.name in bindings:
        ch = bindings[box.name]
    elif box.name.startswith("trace:") and box.output_type.is_unit:
        ch = backend.trace_channel(box.input_type)
    else:
        raise UnknownBoxError(f"no box named {box.name!r} declared on backend {backend.name}")
    if (ch.input_type, ch.output_type) != (box.input_type, box.output_type):
        raise TypeMismatchError(
            f"box {box.name!r} is used as {box.input_type} -> {box.output_type} "
            f"but is bound as {ch.input_type} -> {ch.output_type}"
        )
    return ch


def evaluate_channel(
    d: Diagram,
    backend: TheoryBackend,
    bindings: Mapping[str, Channel] | None = None,
    memo: dict | None = None,
) -> Channel:
    """Evaluate to the backend's internal kernel form.

    This is the full-information result: on the real-amplitude backend it
    retains what the transfer matrix alone cannot see.
    """
    if memo is None:
        memo = {}
    if d in memo:
        return memo[d]

    if isinstance(d, PrimitiveBox):
        ch = _resolve_box(d, backend, bindings)
    elif isinstance(d, Identity):
        ch = backend.identity(d.system)
    elif isinstance(d, Swap):
        ch = Channel(d.input_type, d.output_type, backend.kernel_swap(d.left, d.right))
    elif isinstance(d, Seq):
        first = evaluate_channel(d.parts[0], backend, bindings, memo)
        kernel = _chain(d.parts[1:], first.kernel[None], first.output_type, backend, bindings, memo)[0]
        ch = Channel(first.input_type, d.output_type, kernel)
    elif isinstance(d, Par):
        ch = reduce(backend.par, (evaluate_channel(part, backend, bindings, memo) for part in d.parts))
    else:
        raise UnknownBoxError(f"cannot evaluate term of type {type(d).__name__}")

    memo[d] = ch
    return ch


def _check_wires(prefix: SystemType, next_input: SystemType) -> None:
    if prefix != next_input:
        raise TypeMismatchError(f"sequential wires disagree: {prefix} vs {next_input}")


def _chain(pieces, stack, word, backend, bindings, memo) -> np.ndarray:
    """``pieces``, terms or tests, applied in turn to each of a stack of
    kernels whose rows are on ``word``: ``(count, K)`` kernel columns, or
    ``(1, K, cols)`` for one kernel.  A test turns each column into one
    column per outcome, in label order, the outcome index inner.  ``Seq``
    terms, ``test_seq`` tests and one-branch tests are opened into the pieces
    they apply.  Each piece's wires are checked just before it is applied,
    and ``stack`` is rebound after each, so no earlier stack than a layer's
    input is alive while it runs."""
    todo = list(reversed(pieces))  # the next piece last
    while todo:
        piece = todo.pop()
        _check_wires(word, piece.input_type)
        if isinstance(piece, Seq) or isinstance(piece, Test) and piece.kind is Seq:
            todo.extend(reversed(piece.parts))
            continue
        if isinstance(piece, Test) and len(piece.outcomes) == 1:
            todo.append(piece.branches[0])
            continue
        if isinstance(piece, Test) and piece.kind is not Par:  # given by its branches
            outs = [_chain((b,), stack, word, backend, bindings, memo) for b in piece.branches]
            stack = np.stack(outs, axis=1).reshape(-1, outs[0].shape[1])
        else:  # a term or a test_par: one product per kernel and leaf
            stack = backend.apply_par(_leaves(piece, backend, bindings, memo), stack)
        word = piece.output_type
    return stack


def _leaves(layer, backend, bindings, memo) -> list:
    """A layer's leaves in wire order, as ``TheoryBackend.apply_par`` takes
    them: ``Par`` terms, ``test_par`` tests and one-branch tests are opened,
    nested ones too; identities and swaps pass through; every other leaf is
    resolved to its channel in leaf order, a test's kernel stacking its
    branches' kernels."""
    leaves, todo = [], [layer]  # the next leaf last
    while todo:
        leaf = todo.pop()
        if isinstance(leaf, Par) or isinstance(leaf, Test) and leaf.kind is Par:
            todo.extend(reversed(leaf.parts))
        elif isinstance(leaf, Test) and len(leaf.outcomes) == 1:
            todo.append(leaf.branches[0])
        elif isinstance(leaf, (Identity, Swap)):
            leaves.append(leaf)
        elif isinstance(leaf, Test):
            kernels = [evaluate_channel(b, backend, bindings, memo).kernel for b in leaf.branches]
            leaves.append(Channel(leaf.input_type, leaf.output_type, np.stack(kernels)))
        else:
            leaves.append(evaluate_channel(leaf, backend, bindings, memo))
    return leaves


def evaluate(
    d: Diagram,
    backend: TheoryBackend,
    bindings: Mapping[str, Channel] | None = None,
) -> TransferMatrix:
    """Evaluate a circuit to its transfer matrix on state coordinates."""
    return backend.transfer_of(evaluate_channel(d, backend, bindings))


@dataclass
class OutcomeDistribution:
    """Probabilities per outcome label, in the test's label order."""

    probs: dict[str, float]

    @property
    def total(self) -> float:
        return float(sum(self.probs.values()))

    def __getitem__(self, label: str) -> float:
        return self.probs[label]

    def items(self):
        return self.probs.items()


def run_test_circuit(
    t: Test,
    backend: TheoryBackend,
    bindings: Mapping[str, Channel] | None = None,
) -> OutcomeDistribution:
    """Outcome distribution of a scalar-typed test circuit.

    Branch scalars are range-checked individually and reported unclamped.
    The total must be 1 within the marginal tolerance (true whenever the
    test was assembled from complete tests), or
    :class:`NormalizationViolationError` is raised.
    """
    if not (t.input_type.is_unit and t.output_type.is_unit):
        raise TypeMismatchError(
            f"test circuit must be scalar-typed, got {t.input_type} -> {t.output_type}"
        )
    values = _columns(t, backend, bindings, {})[:, 0]
    # the trivial system's one coordinate is the scalar itself, on every theory
    dist = OutcomeDistribution({
        label: backend.prob(value.real) for label, value in zip(t.outcomes.labels, values)})
    if abs(dist.total - 1.0) > backend.tol.marginal:
        raise NormalizationViolationError(dist.total, backend.tol.marginal)
    return dist


def _columns(t: Test, backend, bindings, memo) -> np.ndarray:
    """Kernel columns of a test on the trivial input, one row per outcome in
    label order: a ``test_par``'s parts combine by ``kernel_par``, as a lone
    branch's dense head does, and a ``test_seq``'s later parts are applied to
    its first part's columns.  A branch of a test given by its branches is
    evaluated whole, through the shared memo."""
    if t.kind is Par:
        stacks = (Channel(UNIT, p.output_type, _columns(p, backend, bindings, memo)[:, :, None])
                  for p in t.parts)
        return reduce(backend.par, stacks).kernel[:, :, 0]
    if t.kind is Seq:
        return _chain(t.parts[1:], _columns(t.parts[0], backend, bindings, memo), t.parts[0].output_type,
                      backend, bindings, memo)
    return np.stack([evaluate_channel(b, backend, bindings, memo).kernel[:, 0] for b in t.branches])
