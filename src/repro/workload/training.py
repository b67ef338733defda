"""Training workload: the work one device does for one training micro-batch.

:class:`TrainingMicrobatchSpec` fixes one pipeline stage's share of a
micro-batch -- its layers, shape, parallel degrees and precision -- and maps
it onto the per-layer :class:`~repro.workload.transformer_layer.LayerTemplate`
that renders the forward and backward operators.  Pipeline scheduling,
data-parallel gradient reduction, and activation recomputation overheads are
applied on top of those operators by the performance-prediction engine.
"""

from __future__ import annotations

import dataclasses

from ..errors import ConfigurationError
from ..hardware.datatypes import Precision
from ..models.transformer import TransformerConfig
from .transformer_layer import LayerExecutionSpec


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
