"""Structural audits: causality, purity, purification, dilation."""

from .causality import (
    CausalityReport,
    ReadoutResult,
    check_causality,
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
    purify_block,
    purify_state,
    steering_measurement,
)
from .purity import (
    PurityReport,
    is_pure_state,
    is_pure_transformation,
)

__all__ = [
    "CausalityReport",
    "ReadoutResult",
    "check_causality",
    "marginal",
    "physicalize_readout",
    "PurityReport",
    "is_pure_state",
    "is_pure_transformation",
    "PurificationResult",
    "ConnectionReport",
    "SteeringResult",
    "purify_block",
    "purify_state",
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
