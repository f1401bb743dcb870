"""Extremality audits: pure states and pure maps.

Purity here is non-refinability: an object is pure when every way of
writing it as a sum of physical pieces uses pieces proportional to it.
For the matrix theories that is rank one (of the density matrix, or of the
transformation's positive representative); for the classical theory it is
support on a single entry.  Impure verdicts carry an explicit two-piece
refinement as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backends.base import Channel, StateVector, TheoryBackend
from ..diagram import Diagram
from ..errors import OptlabError
from ..evaluator import evaluate_channel

__all__ = [
    "PurityReport",
    "is_pure_state",
    "is_pure_transformation",
]


@dataclass
class PurityReport:
    pure: bool
    rank: int
    weights: list[float]
    witness: dict | None = None


def _as_channel(backend: TheoryBackend, m, bindings=None) -> Channel:
    if isinstance(m, Diagram):
        return evaluate_channel(m, backend, bindings=bindings)
    if isinstance(m, Channel):
        return m
    raise OptlabError(f"cannot audit object of type {type(m).__name__}")


def _report(dec) -> PurityReport:
    """Pure means rank one: the zero object (rank 0) is not pure."""
    return PurityReport(dec.rank == 1, dec.rank, dec.weights, dec.witness)


def is_pure_state(backend: TheoryBackend, state: StateVector) -> PurityReport:
    obj = backend.state_object(state.coords, state.system)
    return _report(backend.extremal_decomposition(obj))


def is_pure_transformation(backend: TheoryBackend, m, bindings=None) -> PurityReport:
    ch = _as_channel(backend, m, bindings)
    return _report(backend.extremal_decomposition(backend.channel_choi(ch)))
