"""Compile circuit terms to transfer matrices and run test circuits.

Evaluation is structural recursion over the term: primitive boxes resolve to
compiled kernels, identities and swaps come from the backend's kernel
algebra, sequential composition is a kernel product and parallel composition
a (reordered) Kronecker product.  Results are memoized per call, keyed by
the term itself — terms are immutable and hash structurally in O(1), so
identical subterms are evaluated once even across the branches of a test.

Sequential composition is associative, and a term whose input is the trivial
system is evaluated from the state outward: ``s ; (x ; y)`` is taken as
``(s ; x) ; y``.  Every sequential product on a state-typed prefix is then a
matrix times a column rather than a product of two square kernels, and each
such prefix is still memoized, so the branches of a test that share a
preparation share its propagated state.
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
        ch = backend.box_channel(box.name)
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
    memo: dict[Diagram, Channel] | None = None,
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
    elif isinstance(d, Seq) and d.first.input_type.is_unit and isinstance(d.second, Seq):
        # state first: s ; (x ; y) is (s ; x) ; y, a matrix-column product per step
        ch = evaluate_channel(
            Seq(Seq(d.first, d.second.first), d.second.second), backend, bindings, memo
        )
    elif isinstance(d, Seq):
        first = evaluate_channel(d.first, backend, bindings, memo)
        second = evaluate_channel(d.second, backend, bindings, memo)
        if first.output_type != second.input_type:
            raise TypeMismatchError(
                f"sequential wires disagree: {first.output_type} vs {second.input_type}"
            )
        ch = Channel(first.input_type, second.output_type, backend.kernel_seq(first, second))
    elif isinstance(d, Par):
        left = evaluate_channel(d.left, backend, bindings, memo)
        right = evaluate_channel(d.right, backend, bindings, memo)
        ch = backend.par(left, right)
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
    check_normalization: bool = True,
    tol: float | None = None,
) -> OutcomeDistribution:
    """Outcome distribution of a scalar-typed test circuit.

    Branch scalars are range-checked individually and reported unclamped.
    When ``check_normalization`` is set (the default — correct whenever the
    test was assembled from complete tests), the total must be 1 within the
    marginal tolerance or :class:`NormalizationViolationError` is raised.
    """
    if not (t.input_type.is_unit and t.output_type.is_unit):
        raise TypeMismatchError(
            f"test circuit must be scalar-typed, got {t.input_type} -> {t.output_type}"
        )
    memo: dict[Diagram, Channel] = {}
    probs: dict[str, float] = {}
    for label, branch in t.items():
        ch = evaluate_channel(branch, backend, bindings, memo)
        probs[label] = backend.prob(backend.transfer_of(ch).matrix[0, 0])
    dist = OutcomeDistribution(probs)
    if check_normalization:
        tol = backend.tol.marginal if tol is None else tol
        if abs(dist.total - 1.0) > tol:
            raise NormalizationViolationError(dist.total, tol)
    return dist
