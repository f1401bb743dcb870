"""Structural audits: causality, purity, purification, dilation."""

from .causality import (
    CausalityReport,
    DeterminismReport,
    ReadoutResult,
    check_causality,
    is_deterministic,
    marginal,
    physicalize_readout,
)
from .dilation import (
    ChoiCorrespondence,
    DilationResult,
    NiwdReport,
    choi_correspondence,
    dilation_uniqueness,
    niwd_check,
    stinespring_dilate,
)
from .purification import (
    ConnectionReport,
    PurificationResult,
    SteeringResult,
    purification_uniqueness,
    purify_state,
    purify_states,
    steering_measurement,
)
from .purity import (
    PurityReport,
    ReversibilityReport,
    TransitivityResult,
    is_pure_state,
    is_pure_transformation,
    is_reversible,
    transitivity_witness,
)

__all__ = [
    "CausalityReport",
    "DeterminismReport",
    "ReadoutResult",
    "check_causality",
    "is_deterministic",
    "marginal",
    "physicalize_readout",
    "PurityReport",
    "ReversibilityReport",
    "TransitivityResult",
    "is_pure_state",
    "is_pure_transformation",
    "is_reversible",
    "transitivity_witness",
    "PurificationResult",
    "ConnectionReport",
    "SteeringResult",
    "purify_state",
    "purify_states",
    "purification_uniqueness",
    "steering_measurement",
    "ChoiCorrespondence",
    "NiwdReport",
    "DilationResult",
    "choi_correspondence",
    "niwd_check",
    "stinespring_dilate",
    "dilation_uniqueness",
]
