"""Megatron-style tensor model parallelism: shard sizes and communication volumes.

The Megatron-LM partitioning (Shoeybi et al.) splits the first GEMM of each
block along the weight columns and the second along the rows, so that the
only synchronization needed is a single all-reduce of the block output per
block per pass.  This module captures the *bookkeeping* side of that scheme:
how many parameters end up on each tensor-parallel rank and how many bytes
each rank contributes to the tensor-parallel collectives.  The kernel-level
effect on GEMM shapes is handled by
:class:`~repro.workload.transformer_layer.LayerTemplate`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..hardware.datatypes import Precision
from ..models.transformer import TransformerConfig


@dataclasses.dataclass(frozen=True)
class TensorParallelShard:
    """Per-rank parameter counts under Megatron tensor parallelism.

    Attributes:
        model: The full (unsharded) model configuration.
        tensor_parallel: TP degree used for sharding.
    """

    model: TransformerConfig
    tensor_parallel: int = 1

    @property
    def attention_parameters_per_layer(self) -> float:
        """Attention weights held by one rank for one layer."""
        return self.model.attention_parameters_per_layer / self.tensor_parallel

    @property
    def mlp_parameters_per_layer(self) -> float:
        """MLP weights held by one rank for one layer."""
        return self.model.mlp_parameters_per_layer / self.tensor_parallel

    @property
    def norm_parameters_per_layer(self) -> float:
        """Layer-norm parameters (replicated across the TP group)."""
        return float(self.model.norm_parameters_per_layer)

    @property
    def parameters_per_layer(self) -> float:
        """Total weights per rank for one layer."""
        return (
            self.attention_parameters_per_layer
            + self.mlp_parameters_per_layer
            + self.norm_parameters_per_layer
        )

    @property
    def embedding_parameters(self) -> float:
        """Embedding (and LM-head) weights per rank; Megatron shards the vocabulary."""
        return self.model.embedding_parameters / self.tensor_parallel

    def parameters_per_rank(self, layers: int) -> float:
        """Weights one rank holds for ``layers`` transformer layers plus embeddings."""
        return layers * self.parameters_per_layer + self.embedding_parameters


def tp_forward_communication_volume(
    model: TransformerConfig,
    micro_batch: int,
    seq_len: int,
    precision: Precision = Precision.FP16,
) -> float:
    """Bytes all-reduced per layer per micro-batch in the forward pass.

    The Megatron mapping performs two all-reduces of the full hidden state
    (one per block) per layer per forward pass.
    """
    hidden_state_bytes = micro_batch * seq_len * model.hidden_size * precision.bytes_per_element
    return 2.0 * hidden_state_bytes


def tp_backward_communication_volume(
    model: TransformerConfig,
    micro_batch: int,
    seq_len: int,
    precision: Precision = Precision.FP16,
) -> float:
    """Bytes all-reduced per layer per micro-batch in the backward pass."""
    return tp_forward_communication_volume(model, micro_batch, seq_len, precision)


def shard_summary(model: TransformerConfig, tensor_parallel: int, layers: int) -> Dict[str, float]:
    """Convenient flat summary of per-rank parameter counts."""
    shard = TensorParallelShard(model=model, tensor_parallel=tensor_parallel)
    return {
        "attention_per_layer": shard.attention_parameters_per_layer,
        "mlp_per_layer": shard.mlp_parameters_per_layer,
        "norm_per_layer": shard.norm_parameters_per_layer,
        "per_layer": shard.parameters_per_layer,
        "embedding": shard.embedding_parameters,
        "total": shard.parameters_per_rank(layers),
    }
