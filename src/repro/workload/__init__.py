"""Workload layer: operators and the per-layer templates that render them on one device."""

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
from .transformer_layer import LayerTemplate

__all__ = [
    "CollectiveKind",
    "CommunicationOp",
    "ElementwiseOp",
    "GEMM",
    "LayerTemplate",
    "MemoryOp",
    "NormalizationOp",
    "Operator",
    "OperatorKind",
    "make_gemv",
]
