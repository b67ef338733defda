"""Training workload builder: the task graph of one training micro-batch.

The builder produces, for one pipeline stage on one device, the chain of
forward and backward operators (including the tensor-parallel collectives)
for a configurable number of transformer layers.  Pipeline scheduling,
data-parallel gradient reduction, and activation recomputation overheads are
applied on top of this graph by the performance-prediction engine.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..errors import ConfigurationError
from ..hardware.datatypes import Precision
from ..models.transformer import TransformerConfig
from .graph import TaskGraph
from .operators import Operator
from .transformer_layer import LayerExecutionSpec, backward_gemms


@dataclasses.dataclass(frozen=True)
class TrainingMicrobatchSpec:
    """Description of the work one device does for one training micro-batch.

    Attributes:
        model: The transformer architecture.
        micro_batch: Micro-batch size (sequences) per model replica.
        seq_len: Training sequence length.
        layers_per_stage: Number of transformer layers resident on the device
            (``num_layers / pipeline_parallel`` for a non-interleaved schedule).
        tensor_parallel: Tensor-parallel degree.
        sequence_parallel: Whether sequence parallelism is enabled.
        precision: Compute precision for activations and weights.
        include_embedding: Whether the device also runs the embedding lookup
            and the LM head GEMM (first/last pipeline stage).
    """

    model: TransformerConfig
    micro_batch: int
    seq_len: int
    layers_per_stage: int
    tensor_parallel: int = 1
    sequence_parallel: bool = False
    precision: Precision = Precision.FP16
    include_embedding: bool = False

    def __post_init__(self) -> None:
        if self.layers_per_stage < 1:
            raise ConfigurationError("layers_per_stage must be at least 1")

    def layer_spec(self) -> LayerExecutionSpec:
        """The per-layer execution spec implied by this micro-batch spec."""
        return LayerExecutionSpec(
            model=self.model,
            micro_batch=self.micro_batch,
            seq_len=self.seq_len,
            tensor_parallel=self.tensor_parallel,
            sequence_parallel=self.sequence_parallel,
            precision=self.precision,
            with_dropout=True,
        )


def build_forward_graph(spec: TrainingMicrobatchSpec, tp_scope: str = "intra_node") -> TaskGraph:
    """Forward-pass task graph of one micro-batch on one pipeline stage."""
    graph = TaskGraph(name=f"{spec.model.name}-forward")
    layer = spec.layer_spec()
    template = layer.template()
    last: Optional[int] = None
    for layer_index in range(spec.layers_per_stage):
        tags = [f"layer{layer_index}", "forward"]
        ops: List[Operator] = list(template.forward_compute_ops(*layer.shape))
        ops.extend(template.forward_communication(layer.tokens, scope=tp_scope))
        for op in ops:
            last = graph.add(op, deps=[last] if last is not None else [], tags=tags)
    if spec.include_embedding:
        head = template.lm_head(layer.tokens)
        last = graph.add(head, deps=[last] if last is not None else [], tags=["lm_head", "forward"])
    return graph


def build_backward_graph(spec: TrainingMicrobatchSpec, tp_scope: str = "intra_node") -> TaskGraph:
    """Backward-pass task graph of one micro-batch on one pipeline stage."""
    graph = TaskGraph(name=f"{spec.model.name}-backward")
    layer = spec.layer_spec()
    template = layer.template()
    last: Optional[int] = None
    if spec.include_embedding:
        for op in backward_gemms(template.lm_head(layer.tokens)):
            last = graph.add(op, deps=[last] if last is not None else [], tags=["lm_head", "backward"])
    for layer_index in range(spec.layers_per_stage):
        tags = [f"layer{layer_index}", "backward"]
        ops: List[Operator] = list(template.backward_compute_ops(*layer.shape))
        ops.extend(template.backward_communication(layer.tokens, scope=tp_scope))
        for op in ops:
            last = graph.add(op, deps=[last] if last is not None else [], tags=tags)
    return graph


def build_training_microbatch_graph(spec: TrainingMicrobatchSpec, tp_scope: str = "intra_node") -> TaskGraph:
    """Forward + backward task graph of one micro-batch on one pipeline stage."""
    graph = build_forward_graph(spec, tp_scope=tp_scope)
    backward = build_backward_graph(spec, tp_scope=tp_scope)
    tail = [graph.nodes[-1].node_id] if len(graph) else None
    graph.merge(backward, deps=tail)
    return graph
