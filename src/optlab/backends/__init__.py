"""Theory backends and the registry keyed by theory name."""

from __future__ import annotations

from ..errors import OptlabError
from .base import (
    Channel,
    EffectVector,
    Payload,
    PhysicalityCertificate,
    StateVector,
    TheoryBackend,
    Tolerances,
    TransferMatrix,
)
from .classical import ClassicalBackend
from .quantum import QuantumBackend, RealQuantumBackend

__all__ = [
    "Channel",
    "EffectVector",
    "Payload",
    "PhysicalityCertificate",
    "StateVector",
    "TheoryBackend",
    "Tolerances",
    "TransferMatrix",
    "ClassicalBackend",
    "QuantumBackend",
    "RealQuantumBackend",
    "BACKENDS",
    "get_backend",
]

BACKENDS: dict[str, type[TheoryBackend]] = {
    QuantumBackend.name: QuantumBackend,
    RealQuantumBackend.name: RealQuantumBackend,
    ClassicalBackend.name: ClassicalBackend,
}


def get_backend(theory: str, systems=None) -> TheoryBackend:
    """Instantiate a backend by theory name (quantum, quantum-real, classical)."""
    try:
        cls = BACKENDS[theory]
    except KeyError:
        raise OptlabError(
            f"unknown theory {theory!r}; available: {', '.join(sorted(BACKENDS))}"
        ) from None
    return cls(systems)
