"""Purification audits: extend states to pure ones, compare extensions, steer.

The matrix theories purify every state; the classical theory only purifies
point masses, and otherwise reports an honest failure with the refinement
that obstructs it.  Two purifications of one state on the same purifying
system are always connected by a reversible transformation on that system
alone, and every decomposition of the purified state is induced by an
observation test on the purifying side (steering); both facts are realized
constructively here and replayed through the evaluator for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..backends.base import Channel, EffectVector, StateVector, TheoryBackend
from ..diagram import SystemType
from ..errors import (
    BackendLacksPurificationError,
    MarginalMismatchError,
    NotPureError,
    OptlabError,
)
from .purity import is_pure_state

__all__ = [
    "PurificationResult",
    "ConnectionReport",
    "SteeringResult",
    "purify_state",
    "purification_uniqueness",
    "steering_measurement",
]


@dataclass
class PurificationResult:
    verdict: str  # "Purified" | "Failure"
    purifying_system: SystemType | None = None
    state: StateVector | None = None
    rank: int | None = None
    marginal_error: float | None = None
    witness: dict | None = None


@dataclass
class ConnectionReport:
    """Two extensions related by a reversible map on the extending system."""

    verdict: str  # "Connected" | "Unconnected"
    channel: Channel | None
    matrix: np.ndarray | None
    replay_error: float
    marginal_error: float


@dataclass
class SteeringResult:
    """Observation test on the purifying side inducing a given decomposition."""

    labels: tuple[str, ...]
    effects: list[EffectVector]
    effect_objects: list[np.ndarray]
    completeness_residual: float
    branch_errors: list[float]
    completion_label: str


def _split(word: SystemType, base: SystemType) -> SystemType:
    """The wing: what follows the prefix ``base`` in ``word``."""
    if word.word[: len(base)] != base.word:
        raise OptlabError(f"{base} is not a prefix of {word}")
    return SystemType(word.word[len(base):])


def _connection(backend: TheoryBackend, u: np.ndarray, marginal_error: float,
                base: SystemType, ext: SystemType, first, second) -> ConnectionReport:
    """Replay the reversible map ``u`` on the wing ``ext`` after the kernel
    ``first``; the two are connected when that lands on ``second``."""
    conn = backend.conjugation_channel(u, ext)
    joint = backend.par(backend.identity(base), conn)
    replay = float(np.max(np.abs(joint.kernel @ first - second)))
    connected = replay <= backend.tol.gap
    return ConnectionReport(
        verdict="Connected" if connected else "Unconnected",
        channel=conn if connected else None,
        matrix=u if connected else None,
        replay_error=replay,
        marginal_error=marginal_error,
    )


def purify_state(backend: TheoryBackend, state: StateVector) -> PurificationResult:
    """Canonical pure extension with the smallest purifying system.

    Spectral square root on the matrix theories; on the classical theory
    only point masses extend purely, so anything else returns a ``Failure``
    verdict with the refinement witness.
    """
    word = state.system
    obj = backend.state_object(state.coords, word)
    dec = backend.extremal_decomposition(obj)
    try:
        psi_obj, r = backend.purification(obj, dec)
    except BackendLacksPurificationError as e:
        return PurificationResult(
            verdict="Failure", rank=dec.rank, witness={"reason": str(e), **(dec.witness or {})}
        )
    purifying = backend.scratch_system(r)
    joint = word * purifying
    reduced = backend.partial_trace(psi_obj, [obj.shape[0], r], [0])
    marginal_error = float(np.max(np.abs(reduced - obj)))
    psi = StateVector(backend.state_coords(psi_obj, joint), joint)
    return PurificationResult("Purified", purifying, psi, dec.rank, marginal_error)


def _require_pure(backend: TheoryBackend, st: StateVector) -> np.ndarray:
    """The state's object, after checking that it is pure."""
    report = is_pure_state(backend, st)
    if not report.pure:
        raise NotPureError(f"state on {st.system} is not pure (rank {report.rank})")
    return backend.state_object(st.coords, st.system)


def purification_uniqueness(
    backend: TheoryBackend,
    psi1: StateVector,
    psi2: StateVector,
    base: SystemType,
) -> ConnectionReport:
    """Connect two same-marginal pure extensions by a reversible map.

    Both states live on ``base * extending``; the connecting transformation
    acts on the extending part only.  Raises ``NotPureError`` for impure
    inputs and ``MarginalMismatchError`` when the marginals differ.
    """
    if psi1.system != psi2.system:
        raise OptlabError("the two extensions must share one joint system")
    ext = _split(psi1.system, base)
    u, marg_err = backend.pure_connection(
        _require_pure(backend, psi1), _require_pure(backend, psi2),
        backend.hilbert_dim(base), backend.hilbert_dim(ext),
    )
    if marg_err > backend.tol.marginal:
        raise MarginalMismatchError(
            f"the two extensions have different marginals on {base} "
            f"(deviation {marg_err:.3e})"
        )
    return _connection(backend, u, marg_err, base, ext,
                       backend.state_as_channel(psi1).kernel,
                       backend.state_as_channel(psi2).kernel)


def steering_measurement(
    backend: TheoryBackend,
    branches: Sequence[StateVector],
    psi: StateVector,
    base: SystemType,
    labels: Sequence[str] | None = None,
    tol: float | None = None,
) -> SteeringResult:
    """Observation test on the purifying side realizing a state decomposition.

    ``branches`` are subnormalized states on ``base`` summing to the
    marginal of the pure state ``psi``; the returned effects, paired with
    ``psi`` on the extending system, reproduce each branch.  Branches
    outside the marginal's support raise ``UnsupportedBranchError``; a
    branch sum differing from the marginal raises
    ``BranchSumMismatchError``.
    """
    tol = backend.tol.eigenvalue_floor if tol is None else tol
    labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(len(branches)))
    if len(labels) != len(branches):
        raise OptlabError("one label per branch, please")
    ext = _split(psi.system, base)
    first = min(range(len(labels)), key=lambda i: labels[i])
    db = backend.hilbert_dim(ext)
    effect_objects, completion = backend.steering_effects(
        _require_pure(backend, psi), [backend.state_object(b.coords, base) for b in branches],
        backend.hilbert_dim(base), db, labels, tol,
    )
    effect_objects[first] = effect_objects[first] + completion
    completeness = float(np.max(np.abs(sum(effect_objects) - backend.diagonal(np.ones(db)))))

    psi_kernel = backend.state_as_channel(psi).kernel
    ident = backend.identity(base)
    effects = []
    branch_errors = []
    for b, eobj in zip(branches, effect_objects):
        eff_ch = backend.effect_channel(eobj, ext)
        steered = backend.par(ident, eff_ch).kernel @ psi_kernel
        branch_errors.append(float(np.max(np.abs(steered - backend.state_as_channel(b).kernel))))
        effects.append(backend.channel_effect(eff_ch))

    return SteeringResult(
        labels=labels,
        effects=effects,
        effect_objects=effect_objects,
        completeness_residual=completeness,
        branch_errors=branch_errors,
        completion_label=labels[first],
    )
