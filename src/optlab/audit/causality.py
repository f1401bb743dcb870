"""Normalization-based audits: unique discard, completeness, readouts.

The theory is causal: there is exactly one deterministic effect per system,
so every complete observation test must have branches summing to the
discard effect, and discarding the output of a deterministic transformation
must equal discarding its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..backends.base import Channel, EffectVector, PhysicalityCertificate, StateVector, TheoryBackend, TransferMatrix
from ..diagram import UNIT, Diagram, Identity, SystemType, Test
from ..errors import CausalityViolationError, IncompleteTestError, OptlabError, TypeMismatchError
from ..evaluator import evaluate_channel

__all__ = [
    "CausalityReport",
    "ReadoutResult",
    "check_causality",
    "marginal",
    "physicalize_readout",
]


@dataclass
class CausalityReport:
    residuals: list[float]
    max_residual: float
    tolerance: float
    tests_checked: int


@dataclass
class ReadoutResult:
    """A complete test folded into one deterministic box plus pointer effects."""

    pointer: SystemType
    channel: Channel
    transfer: TransferMatrix
    effects: list[EffectVector]
    labels: tuple[str, ...]
    branch_errors: list[float]
    certificate: PhysicalityCertificate


def _branch_channels(
    backend: TheoryBackend, test, bindings=None
) -> list[tuple[str, Channel]]:
    """Normalize the accepted input shapes to labelled channels."""
    if isinstance(test, Test):
        memo: dict = {}
        return [
            (label, evaluate_channel(branch, backend, bindings=bindings, memo=memo))
            for label, branch in test.items()
        ]
    out = []
    for i, item in enumerate(test):
        if isinstance(item, Channel):
            out.append((str(i), item))
        elif isinstance(item, Diagram):
            out.append((str(i), evaluate_channel(item, backend, bindings=bindings)))
        else:
            raise OptlabError(f"cannot interpret test branch of type {type(item).__name__}")
    return out


def check_causality(
    backend: TheoryBackend,
    tests: Sequence | Callable,
    bindings=None,
    tol: float | None = None,
) -> CausalityReport:
    """Verify each complete observation test sums to the discard effect.

    Branches may be effect vectors, effect-shaped channels, or a ``Test``
    whose branches are effect-typed diagrams; ``tests`` may also be a walk of
    drawn tests awaiting its decision: ``sampling.run_trials`` with a count
    and ``Sampler.observation_test_block`` bound (``functools.partial``),
    which decides each block before it draws the next.  The effects of the
    tests on one word get their coordinates through one stacked
    ``transfer_matrices`` call, and the tests of one word are decided as one
    stack.  Raises ``CausalityViolationError`` on the first failing test in
    the given order; a malformed test raises its error only when no test
    before it fails.
    """
    tol = backend.tol.marginal if tol is None else tol
    if callable(tests):
        residuals, _ = tests(lambda first, block: _decide_block(backend, first, block, tol))
    else:
        residuals = _decide_declared(backend, tests, bindings, tol).tolist()
    return CausalityReport(
        residuals=residuals,
        max_residual=max(residuals, default=0.0),
        tolerance=tol,
        tests_checked=len(residuals),
    )


def _decide_block(backend, first, stacks, tol) -> tuple[list[float], np.ndarray]:
    """``_decide`` for a block of drawn tests, the ``run_trials`` decision."""
    groups = [(word, at, _coords(backend, word, kernels)) for word, at, kernels in stacks]
    residuals = _decide(backend, groups, tol, first)
    return residuals.tolist(), residuals > tol


def _decide_declared(backend, tests, bindings, tol) -> np.ndarray:
    """``_decide`` for a sequence of tests, stacked by word and outcome count."""
    words: list[SystemType] = []
    effects: list = []  # per test, its effects' coordinates, or for now their count
    kernels: dict[SystemType, tuple[list[int], list[np.ndarray]]] = {}  # word -> tests, kernels
    try:
        for test in tests:
            if isinstance(test, (list, tuple)) and test and isinstance(test[0], EffectVector):
                words.append(test[0].system)
                effects.append(np.array([e.coords for e in test]))
                continue
            branches = _branch_channels(backend, test, bindings)
            word = branches[0][1].input_type
            for _, ch in branches:
                if not ch.output_type.is_unit or ch.input_type != word:
                    raise TypeMismatchError(
                        "causality audit needs effect-shaped branches on a common system"
                    )
            at, stack = kernels.setdefault(word, ([], []))
            at.append(len(words))
            stack.extend(ch.kernel for _, ch in branches)
            words.append(word)
            effects.append(len(branches))
    except OptlabError:
        _decide(backend, _stacks(backend, words, effects, kernels), tol, 0)
        raise
    return _decide(backend, _stacks(backend, words, effects, kernels), tol, 0)


def _stacks(backend, words, effects, kernels) -> list[tuple]:
    """The tests' effect coordinates, stacked by word and outcome count."""
    for word, (at, stack) in kernels.items():
        rows = _coords(backend, word, np.array(stack))
        start = 0
        for i in at:
            start, effects[i] = start + effects[i], rows[start:start + effects[i]]
    groups: dict[tuple, list[int]] = {}
    for i, (word, e) in enumerate(zip(words, effects)):
        groups.setdefault((word, len(e)), []).append(i)
    return [(word, np.array(at), np.array([effects[i] for i in at])) for (word, _), at in groups.items()]


def _coords(backend, word: SystemType, kernels: np.ndarray) -> np.ndarray:
    """The coordinates of a stack of effect kernels ``(..., 1, cols)`` on ``word``."""
    rows = backend.transfer_matrices(kernels.reshape(-1, *kernels.shape[-2:]), word, UNIT)[:, 0]
    return rows.reshape(*kernels.shape[:-2], -1)


def _decide(backend, groups, tol, first) -> np.ndarray:
    """Each test's largest deviation of its effect sum from the discard, for
    ``groups`` of (word, test indices in ascending order, effect coordinates
    ``(tests, k, state_dim)``) that cover the tests once, raising on the
    first test over ``tol``, the tests numbered from ``first``."""
    residuals = np.empty(sum(len(at) for _, at, _ in groups))
    failed = None
    for word, at, effects in groups:
        total = sum(effects[:, j] for j in range(effects.shape[1]))  # in outcome order, as one test's sum
        r = residuals[at] = np.abs(total - backend.trace_effect(word).coords).max(axis=-1)
        over = at[r > tol]
        if over.size and (failed is None or over[0] < failed[0]):
            failed = (int(over[0]), word)
    if failed is not None:
        i, word = failed
        raise CausalityViolationError(float(residuals[i]), f"test #{first + i} on {word}")
    return residuals


def marginal(backend: TheoryBackend, state: StateVector, keep) -> StateVector:
    """Discard the tensor factors not in ``keep`` (an index or index list)."""
    word = state.system
    if isinstance(keep, int):
        keep = [keep]
    keep = sorted(set(keep))
    if any(i < 0 or i >= len(word) for i in keep):
        raise OptlabError(f"marginal indices {keep} out of range for {word}")
    kept_word = SystemType(tuple(word.word[i] for i in keep))
    obj = backend.state_object(state.coords, word)
    reduced = backend.partial_trace(obj, list(backend.word_dims(word)), keep)
    return StateVector(backend.state_coords(reduced, kept_word), kept_word)


def physicalize_readout(
    backend: TheoryBackend,
    test,
    bindings=None,
) -> ReadoutResult:
    """Fold a complete test into one deterministic box writing to a pointer.

    The result couples each branch to a distinct pointer state; composing
    the box with the matching pointer effect returns the original branch.
    Raises ``IncompleteTestError`` when the branches do not sum to a
    deterministic transformation.
    """
    tol = backend.tol.marginal
    branches = _branch_channels(backend, test, bindings)
    labels = tuple(label for label, _ in branches)
    win = branches[0][1].input_type
    wout = branches[0][1].output_type
    for _, ch in branches:
        if (ch.input_type, ch.output_type) != (win, wout):
            raise TypeMismatchError("readout branches must share input and output systems")

    total = Channel(win, wout, sum(ch.kernel for _, ch in branches))
    residual = backend.deterministic_residual(total)
    if residual > tol:
        raise IncompleteTestError(
            f"branches sum to a non-deterministic transformation (residual {residual:.3e})"
        )

    k = len(branches)
    pointer = backend.scratch_system(k)
    # point masses on the pointer serve as its states and as its effects
    pointers = [backend.diagonal(np.eye(k)[x]) for x in range(k)]

    joint_kernel = sum(
        backend.par(ch, backend.state_channel(pointers[x], pointer)).kernel
        for x, (_, ch) in enumerate(branches)
    )
    joint = Channel(win, wout * pointer, joint_kernel)
    certificate = backend.certify_channel(joint)

    # every pointer effect read back at once: one stacked effect beside the identity on wout
    eff_ch = backend.effect_channel(np.array(pointers), pointer)
    readback = backend.apply_par([Identity(wout), eff_ch], joint.kernel[None])
    kernels = np.array([ch.kernel for _, ch in branches])
    branch_errors = np.abs(readback - kernels).max(axis=(1, 2)).tolist()
    coords = backend.transfer_matrices(eff_ch.kernel, pointer, UNIT)[:, 0]
    effects = [EffectVector(c, pointer) for c in coords]

    return ReadoutResult(
        pointer=pointer,
        channel=joint,
        transfer=backend.transfer_of(joint),
        effects=effects,
        labels=labels,
        branch_errors=branch_errors,
        certificate=certificate,
    )
