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
from ..diagram import UNIT, Identity, SystemType
from ..errors import CausalityViolationError, IncompleteTestError, OptlabError, TypeMismatchError
from ..evaluator import branch_channels
from ..sampling import declared_trials

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


def check_causality(
    backend: TheoryBackend,
    tests: Sequence | Callable,
    bindings=None,
    tol: float | None = None,
) -> CausalityReport:
    """Verify each complete observation test sums to the discard effect.

    ``tests`` is a sequence (or any iterable) of tests, each a ``Test`` whose
    branches are effect-typed diagrams or a list of effect-shaped channels
    and diagrams (``evaluator.branch_channels``); or a walk of drawn tests
    awaiting its decision, ``sampling.run_trials`` with a count and
    ``Sampler.observation_test_block`` bound (``functools.partial``).  Both
    are decided by one ``run_trials`` walk, declared tests laid out by
    ``sampling.declared_trials``: a block at a time, the tests of one word
    and outcome count as one stack.  Raises ``CausalityViolationError`` on
    the first failing test in the given order; a malformed test raises its
    error only when no test before it fails.
    """
    tol = backend.tol.marginal if tol is None else tol
    error = None
    if not callable(tests):
        items, error = _effect_stacks(backend, tests, bindings)
        tests = declared_trials(items)
    residuals, _ = tests(lambda first, block: _decide_block(backend, first, block, tol))
    if error is not None:
        raise error
    return CausalityReport(
        residuals=residuals,
        max_residual=max(residuals, default=0.0),
        tolerance=tol,
        tests_checked=len(residuals),
    )


def _effect_stacks(backend, tests, bindings) -> tuple[list, OptlabError | None]:
    """Each test's word and its effect kernels stacked, up to the first
    malformed test, and that test's error (``None`` when there is none)."""
    items = []
    try:
        for test in tests:
            branches = [ch for _, ch in branch_channels(test, backend, bindings)]
            word = branches[0].input_type
            if any(not ch.output_type.is_unit or ch.input_type != word for ch in branches):
                raise TypeMismatchError("causality audit needs effect-shaped branches on a common system")
            items.append((word, np.array([ch.kernel for ch in branches])))
    except OptlabError as e:
        return items, e
    return items, None


def _decide_block(backend, first, stacks, tol) -> tuple[list[float], np.ndarray]:
    """The ``run_trials`` decision of a block of tests, given as ``stacks`` of
    (word, test positions ascending, effect kernels ``(tests, k, 1, cols)``)
    that cover the block once: each test's largest deviation of its effect
    sum from the discard, and which are over ``tol``.  Raises on the
    block's first test over ``tol``, the tests numbered from ``first``."""
    residuals = np.empty(sum(len(at) for _, at, _ in stacks))
    failed = None
    for word, at, kernels in stacks:
        rows = backend.transfer_matrices(kernels.reshape(-1, *kernels.shape[-2:]), word, UNIT)[:, 0]
        effects = rows.reshape(*kernels.shape[:2], -1)
        total = sum(effects[:, j] for j in range(effects.shape[1]))  # in outcome order, as one test's sum
        r = residuals[at] = np.abs(total - backend.trace_effect(word).coords).max(axis=-1)
        over = at[r > tol]
        if over.size and (failed is None or over[0] < failed[0]):
            failed = (int(over[0]), word)
    if failed is not None:
        i, word = failed
        raise CausalityViolationError(float(residuals[i]), f"test #{first + i} on {word}")
    return residuals.tolist(), residuals > tol


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
    branches = branch_channels(test, backend, bindings)
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
