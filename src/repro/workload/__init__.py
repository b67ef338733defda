"""Workload layer: operators, layer templates, and the training and inference phase specs."""

from .inference import InferencePhaseSpec
from .operators import (
    CollectiveKind,
    CommunicationOp,
    ElementwiseOp,
    GEMM,
    MemoryOp,
    NormalizationOp,
    Operator,
    OperatorKind,
    make_gemv,
)
from .training import TrainingMicrobatchSpec
from .transformer_layer import LayerExecutionSpec, LayerTemplate

__all__ = [
    "CollectiveKind",
    "CommunicationOp",
    "ElementwiseOp",
    "GEMM",
    "InferencePhaseSpec",
    "LayerExecutionSpec",
    "LayerTemplate",
    "MemoryOp",
    "NormalizationOp",
    "Operator",
    "OperatorKind",
    "TrainingMicrobatchSpec",
    "make_gemv",
]
