"""Compile circuit terms to transfer matrices and run test circuits.

Primitive boxes resolve to compiled kernels, identities and swaps come from
the backend's kernel algebra, parallel composition is the backend's dense
``kernel_par`` and sequential composition a kernel product.  A
:class:`~optlab.diagram.Seq` is a flat chain, evaluated by one loop from its
input end.  Every ``Par`` part after the first is applied leg by leg to the
prefix's kernel columns (``TheoryBackend.apply_par``): each leaf's small
kernel acts on its own wires, so no layer kernel on the whole word is built,
and on a closed circuit a layer costs about as much as one state column.
A ``Par`` that stands alone or starts a chain is built densely, folding its
parts from the left, which is its written association; an effect-shaped
``Par`` is too, as its kernel is one row.  ``Seq`` and ``Par`` are both flat
tuples folded by the same loop, so neither long ``;`` nor long ``*`` chains
recurse.

Results are memoized per call.  Whole terms are keyed by the term itself
(terms are immutable and hash structurally in O(1)); each prefix of a ``;``
or ``*`` chain is keyed by its kind, the memoized result of the shorter
prefix and the next part.

:func:`run_test_circuit` walks the parts of all branches in lockstep.  The
distinct states at each step are the rows of stacked arrays, and each
distinct next part is applied once to all the states that meet it.  Every
state goes through its own product of the same shape as in a lone chain, so
each branch's probability is the one :func:`evaluate` gives that branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, groupby
from operator import itemgetter
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
    elif isinstance(d, (Seq, Par)):
        ch = evaluate_channel(d.parts[0], backend, bindings, memo)
        for part in d.parts[1:]:
            key = (type(d), id(ch), part)  # ch stays alive as a memo value, so its id is stable
            prefix = memo.get(key)
            if prefix is None:
                if isinstance(d, Par):
                    prefix = backend.par(ch, evaluate_channel(part, backend, bindings, memo))
                elif _leg_wise(part):
                    _check_wires(ch.output_type, part.input_type)
                    kernel = _apply_layer(part, ch.kernel.T, backend, bindings, memo).T
                    prefix = Channel(ch.input_type, part.output_type, kernel)
                else:
                    second = evaluate_channel(part, backend, bindings, memo)
                    _check_wires(ch.output_type, second.input_type)
                    prefix = Channel(ch.input_type, part.output_type, backend.kernel_seq(ch, second))
                memo[key] = prefix
            ch = prefix
    else:
        raise UnknownBoxError(f"cannot evaluate term of type {type(d).__name__}")

    memo[d] = ch
    return ch


def _check_wires(prefix: SystemType, next_input: SystemType) -> None:
    if prefix != next_input:
        raise TypeMismatchError(f"sequential wires disagree: {prefix} vs {next_input}")


def _leg_wise(part: Diagram) -> bool:
    """Is ``part``, after the first in a chain, applied leg by leg?  Every
    ``Par`` is, but an effect-shaped one: its dense kernel is a single row."""
    return isinstance(part, Par) and not part.output_type.is_unit


def _apply_layer(part, stack, backend, bindings, memo) -> np.ndarray:
    """``part`` applied to each row of a ``(count, K)`` stack of columns."""
    if _leg_wise(part):
        return backend.apply_par(
            part, stack, lambda leaf: evaluate_channel(leaf, backend, bindings, memo))
    kernel = evaluate_channel(part, backend, bindings, memo).kernel
    return np.matmul(kernel, stack[:, :, None])[:, :, 0]  # one product per column, as in a chain


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
    memo: dict = {}
    chains = [b.parts if isinstance(b, Seq) else (b,) for b in t.branches]
    # a branch stands at a row of a block: the propagated states of one step, stacked
    blocks, words, at, heads = [], [], [], {}
    for parts in chains:
        if parts[0] not in heads:
            ch = evaluate_channel(parts[0], backend, bindings, memo)
            heads[parts[0]] = len(blocks)
            blocks.append(ch.kernel.T)
            words.append(ch.output_type)
        at.append((heads[parts[0]], 0))

    live, values = range(len(chains)), [None] * len(chains)
    for step in count(1):
        for i in live:
            if step == len(chains[i]):  # the branch is done: its state is a scalar
                b, r = at[i]
                values[i] = blocks[b][r, 0]
        live = [i for i in live if step < len(chains[i])]
        if not live:
            break
        meets: dict[Diagram, list[int]] = {}
        for i in live:
            meets.setdefault(chains[i][step], []).append(i)
        next_blocks, next_words = [], []
        for part, members in meets.items():
            for b in {at[i][0] for i in members}:
                _check_wires(words[b], part.input_type)
            stack, row = _gather(blocks, [at[i] for i in members])
            for i in members:
                at[i] = (len(next_blocks), row[at[i]])
            next_blocks.append(_apply_layer(part, stack, backend, bindings, memo))
            next_words.append(part.output_type)
        blocks, words = next_blocks, next_words

    # the trivial system's one coordinate is the scalar itself, on every theory
    dist = OutcomeDistribution({
        label: backend.prob(value.real) for label, value in zip(t.outcomes.labels, values)})
    if abs(dist.total - 1.0) > backend.tol.marginal:
        raise NormalizationViolationError(dist.total, backend.tol.marginal)
    return dist


def _gather(blocks: list[np.ndarray], refs: list[tuple[int, int]]) -> tuple[np.ndarray, dict]:
    """The distinct ``(block, row)`` refs stacked in first-seen order, and
    each ref's row in the stack.  A whole block in order is not copied."""
    row = dict.fromkeys(refs)
    pieces = []
    for b, run in groupby(row, key=itemgetter(0)):
        rows = [r for _, r in run]
        block = blocks[b]
        pieces.append(block if rows == list(range(len(block))) else block[rows])
    for r, ref in enumerate(row):
        row[ref] = r
    return (pieces[0] if len(pieces) == 1 else np.concatenate(pieces)), row
