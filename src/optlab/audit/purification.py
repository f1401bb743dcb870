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
from ..diagram import UNIT, Identity, SystemType
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
    "purify_block",
    "purify_state",
    "purification_uniqueness",
    "steering_measurement",
]


@dataclass
class PurificationResult:
    verdict: str  # "Purified" | "Failure"
    purifying_system: SystemType | None = None
    purified: StateVector | None = None
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
    replayed = backend.apply_par([Identity(base), conn], first[None])[0]
    replay = float(np.max(np.abs(replayed - second)))
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
    verdict with the refinement witness.  The zero state has no pure
    extension on any theory: a ``Failure`` of rank 0.  ``purify_block`` of
    the one state.
    """
    results, _ = purify_block(backend, [(state.system, np.arange(1), np.array([state.coords]))])
    return results[0]


def purify_block(backend: TheoryBackend, stacks) -> tuple[list[PurificationResult], list[bool]]:
    """``purify_state`` of each state of ``stacks`` of (word, the states'
    positions, their coordinates stacked), as ``Sampler.state_block`` draws
    them and ``sampling.declared_trials`` lays declared states out: the
    results in order of position, and which have no pure extension.  The
    states of one word are decomposed as one stack, and those of one rank
    extended as one."""
    results: list = [None] * sum(len(at) for _, at, _ in stacks)
    for word, at, coords in stacks:
        objs = backend.state_object(coords, word)
        decs = backend.extremal_decompositions(objs)
        ranks: dict[int, list[int]] = {}
        for j, dec in enumerate(decs):
            ranks.setdefault(dec.rank, []).append(j)
        for rank, group in ranks.items():
            sub = objs[group]
            try:
                if rank == 0:
                    raise BackendLacksPurificationError("the zero state has no pure extension")
                psis, r = backend.purifications(sub, [decs[j] for j in group])
            except BackendLacksPurificationError as e:
                for j in group:
                    results[at[j]] = PurificationResult(
                        verdict="Failure", rank=rank, witness={"reason": str(e), **(decs[j].witness or {})}
                    )
                continue
            purifying = backend.scratch_system(r)
            joint = word * purifying
            reduced = backend.partial_trace(psis, [objs.shape[1], r], [0])
            errors = np.maximum.reduce(np.abs(reduced - sub).reshape(len(group), -1), axis=1)
            pure = backend.state_coords(psis, joint)
            for j, c, error in zip(group, pure, errors.tolist()):
                results[at[j]] = PurificationResult("Purified", purifying, StateVector(c, joint), rank, error)
    return results, [r.verdict == "Failure" for r in results]


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

    # every branch's effect at once: one stacked effect beside the identity on base
    eff_ch = backend.effect_channel(np.array(effect_objects), ext)
    steered = backend.apply_par([Identity(base), eff_ch], backend.state_as_channel(psi).kernel[None])
    wanted = backend.state_channel(backend.state_object(np.array([b.coords for b in branches]), base), base)
    branch_errors = np.abs(steered - wanted.kernel).max(axis=(1, 2)).tolist()
    coords = backend.transfer_matrices(eff_ch.kernel, ext, UNIT)[:, 0]

    return SteeringResult(
        labels=labels,
        effects=[EffectVector(c, ext) for c in coords],
        effect_objects=effect_objects,
        completeness_residual=completeness,
        branch_errors=branch_errors,
        completion_label=labels[first],
    )
