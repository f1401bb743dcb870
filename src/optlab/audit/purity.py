"""Extremality audits: pure states, pure maps, reversibility, transitivity.

Purity here is non-refinability: an object is pure when every way of
writing it as a sum of physical pieces uses pieces proportional to it.
For the matrix theories that is rank one (of the density matrix, or of the
transformation's positive representative); for the classical theory it is
support on a single entry.  Impure verdicts carry an explicit two-piece
refinement as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends.base import Channel, StateVector, TheoryBackend, TransferMatrix
from ..diagram import Diagram
from ..errors import NotPureError, OptlabError
from ..evaluator import evaluate_channel

__all__ = [
    "PurityReport",
    "ReversibilityReport",
    "TransitivityResult",
    "is_pure_state",
    "is_pure_transformation",
    "is_reversible",
    "transitivity_witness",
]


@dataclass
class PurityReport:
    pure: bool
    rank: int
    weights: list[float]
    witness: dict | None = None


@dataclass
class ReversibilityReport:
    reversible: bool
    inverse: Channel | None
    left_residual: float
    right_residual: float
    reason: str | None = None
    witness: dict | None = None


@dataclass
class TransitivityResult:
    """A reversible transformation carrying one pure normalized state to another."""

    channel: Channel
    transfer: TransferMatrix
    matrix: np.ndarray
    replay_error: float


def _as_channel(backend: TheoryBackend, m, bindings=None) -> Channel:
    if isinstance(m, Diagram):
        return evaluate_channel(m, backend, bindings=bindings)
    if isinstance(m, TransferMatrix):
        return backend.channel_from_transfer(m)
    if isinstance(m, Channel):
        return m
    raise OptlabError(f"cannot audit object of type {type(m).__name__}")


def _report(dec) -> PurityReport:
    return PurityReport(dec.rank <= 1, dec.rank, dec.weights, dec.witness)


def is_pure_state(backend: TheoryBackend, state: StateVector) -> PurityReport:
    obj = backend.state_object(state.coords, state.system)
    return _report(backend.extremal_decomposition(obj))


def is_pure_transformation(backend: TheoryBackend, m, bindings=None) -> PurityReport:
    ch = _as_channel(backend, m, bindings)
    return _report(backend.extremal_decomposition(backend.channel_choi(ch)))


def is_reversible(backend: TheoryBackend, m, bindings=None) -> ReversibilityReport:
    """Is there a physical deterministic inverse?  Returns it when so."""
    tol = backend.tol.eigenvalue_floor
    ch = _as_channel(backend, m, bindings)
    cert = backend.certify_channel(ch)
    if not cert.physical:
        raise OptlabError(f"reversibility audit needs a physical input: {cert}")
    det = backend.deterministic_residual(ch)
    if det > backend.tol.marginal:
        raise OptlabError(
            f"reversibility audit needs a deterministic input (residual {det:.3e})"
        )
    k = np.asarray(ch.kernel)
    if k.shape[0] != k.shape[1]:
        return ReversibilityReport(False, None, np.inf, np.inf, reason="carrier dimensions differ")
    try:
        kinv = np.linalg.inv(k)
    except np.linalg.LinAlgError:
        return ReversibilityReport(False, None, np.inf, np.inf, reason="kernel is singular")
    cond = np.linalg.cond(k)
    if not np.isfinite(cond) or cond > 1.0 / max(tol, 1e-15):
        return ReversibilityReport(False, None, np.inf, np.inf, reason="kernel is singular")
    inverse = Channel(ch.output_type, ch.input_type, kinv)
    inv_cert = backend.certify_channel(inverse)
    left = float(np.max(np.abs(kinv @ k - np.eye(k.shape[0]))))
    right = float(np.max(np.abs(k @ kinv - np.eye(k.shape[0]))))
    if not inv_cert.physical:
        return ReversibilityReport(
            False, None, left, right,
            reason=f"inverse is not physical: {inv_cert.reason}",
            witness=inv_cert.witness,
        )
    return ReversibilityReport(True, inverse, left, right)


def transitivity_witness(backend: TheoryBackend, source: StateVector,
                         target: StateVector) -> TransitivityResult:
    """Reversible transformation mapping one pure normalized state to another.

    Raises ``NotPureError`` unless both states are pure and normalized.
    """
    if source.system != target.system:
        raise OptlabError("transitivity needs two states of the same system")
    word = source.system
    for which, st in (("source", source), ("target", target)):
        report = is_pure_state(backend, st)
        if not report.pure:
            raise NotPureError(f"{which} state is not pure (rank {report.rank})")
        total = sum(report.weights)
        if abs(total - 1.0) > backend.tol.marginal:
            raise OptlabError(f"{which} state is not normalized (total {total:.6f})")

    # a pure state is a purification of the unit on the trivial system
    u, _ = backend.pure_connection(
        backend.state_object(source.coords, word), backend.state_object(target.coords, word),
        1, backend.hilbert_dim(word),
    )
    ch = backend.conjugation_channel(u, word)
    replay = float(np.max(np.abs(ch.kernel @ backend.state_as_channel(source).kernel
                                 - backend.state_as_channel(target).kernel)))
    return TransitivityResult(
        channel=ch,
        transfer=backend.transfer_of(ch),
        matrix=u,
        replay_error=replay,
    )
