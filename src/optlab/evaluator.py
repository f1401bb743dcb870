"""Compile circuit terms to transfer matrices and run test circuits.

Primitive boxes resolve to compiled kernels, identities and swaps come from
the backend's kernel algebra, parallel composition is a (reordered)
Kronecker product and sequential composition a kernel product.  A
:class:`~optlab.diagram.Seq` is a flat chain, evaluated by one loop from its
input end: on a closed circuit every product is then a kernel times a state
column rather than a product of two square kernels.  A left-nested ``Par``
spine is walked by a loop too, in its written association, so neither long
``;`` nor long ``*`` chains recurse.

Results are memoized per call.  Whole terms are keyed by the term itself
(terms are immutable and hash structurally in O(1)); each prefix of a chain
is keyed by the memoized result of the shorter prefix plus the next part, so
the branches of a test that share a preparation share its propagated state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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
        ch = evaluate_channel(d.parts[0], backend, bindings, memo)
        for part in d.parts[1:]:
            key = (id(ch), part)  # ch stays alive as a memo value, so its id is stable
            prefix = memo.get(key)
            if prefix is None:
                second = evaluate_channel(part, backend, bindings, memo)
                if ch.output_type != second.input_type:
                    raise TypeMismatchError(
                        f"sequential wires disagree: {ch.output_type} vs {second.input_type}"
                    )
                prefix = memo[key] = Channel(ch.input_type, second.output_type, backend.kernel_seq(ch, second))
            ch = prefix
    elif isinstance(d, Par):
        spine, node = [d], d.left  # d's left-nested Par nodes, down to a memoized or non-Par left
        while isinstance(node, Par) and node not in memo:
            spine.append(node)
            node = node.left
        ch = evaluate_channel(node, backend, bindings, memo)
        for node in reversed(spine):
            ch = memo[node] = backend.par(ch, evaluate_channel(node.right, backend, bindings, memo))
    else:
        raise UnknownBoxError(f"cannot evaluate term of type {type(d).__name__}")

    memo[d] = ch
    return ch


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
    probs: dict[str, float] = {}
    for label, branch in t.items():
        ch = evaluate_channel(branch, backend, bindings, memo)
        probs[label] = backend.prob(backend.transfer_of(ch).matrix[0, 0])
    dist = OutcomeDistribution(probs)
    if abs(dist.total - 1.0) > backend.tol.marginal:
        raise NormalizationViolationError(dist.total, backend.tol.marginal)
    return dist
