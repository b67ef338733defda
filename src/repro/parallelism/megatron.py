"""Megatron-style tensor model parallelism: per-rank parameter counts.

The Megatron-LM partitioning (Shoeybi et al.) splits the first GEMM of each
block along the weight columns and the second along the rows, so that the
only synchronization needed is a single all-reduce of the block output per
block per pass.  This module captures the *bookkeeping* side of that scheme:
how many parameters end up on each tensor-parallel rank.  The kernel-level
effect -- the sharded GEMM shapes and the TP collectives -- is rendered by
:class:`~repro.workload.transformer_layer.LayerTemplate`.
"""

from __future__ import annotations

import dataclasses

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
