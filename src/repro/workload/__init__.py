"""Workload layer: operators, task graphs, and phase builders."""

from .graph import TaskGraph, TaskNode
from .inference import InferencePhaseSpec, build_decode_step_graph, build_prefill_graph
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
from .training import (
    TrainingMicrobatchSpec,
    build_backward_graph,
    build_forward_graph,
    build_training_microbatch_graph,
)
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
    "TaskGraph",
    "TaskNode",
    "TrainingMicrobatchSpec",
    "build_backward_graph",
    "build_decode_step_graph",
    "build_forward_graph",
    "build_prefill_graph",
    "build_training_microbatch_graph",
    "make_gemv",
]
