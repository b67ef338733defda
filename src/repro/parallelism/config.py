"""Parallelism configuration: DP / TP / PP / SP degrees and batching.

The paper expresses a training configuration as ``DP-TP-PP-SP`` (Table 1);
sequence parallelism is given the same degree as tensor parallelism when
enabled (`SP = TP`) and degree 1 when disabled.  This module validates a
configuration against a model and batch size and derives the quantities the
rest of the framework needs (micro-batch size, number of micro-batches,
layers per pipeline stage, weights per device).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..errors import ConfigurationError
from ..models.transformer import TransformerConfig
from .megatron import TensorParallelShard


@dataclasses.dataclass(frozen=True)
class ParallelismConfig:
    """Degrees of the four parallelism dimensions plus micro-batching.

    Attributes:
        data_parallel: Number of model replicas (DP degree).
        tensor_parallel: Tensor-model-parallel degree (TP).
        pipeline_parallel: Pipeline-parallel degree (PP).
        sequence_parallel: Whether sequence parallelism is enabled (SP = TP).
        micro_batch_size: Sequences per micro-batch per model replica.
        virtual_pipeline_stages: Number of interleaved model chunks per
            pipeline stage (1 means a non-interleaved schedule).
        pipeline_schedule: ``"1f1b"`` (PipeDream-Flush), ``"gpipe"``, or
            ``"interleaved"``.
    """

    data_parallel: int = 1
    tensor_parallel: int = 1
    pipeline_parallel: int = 1
    sequence_parallel: bool = False
    micro_batch_size: int = 1
    virtual_pipeline_stages: int = 1
    pipeline_schedule: str = "1f1b"

    def __post_init__(self) -> None:
        for label, value in (
            ("data_parallel", self.data_parallel),
            ("tensor_parallel", self.tensor_parallel),
            ("pipeline_parallel", self.pipeline_parallel),
            ("micro_batch_size", self.micro_batch_size),
            ("virtual_pipeline_stages", self.virtual_pipeline_stages),
        ):
            if value < 1:
                raise ConfigurationError(f"{label} must be >= 1, got {value}")
        if self.pipeline_schedule not in ("1f1b", "gpipe", "interleaved"):
            raise ConfigurationError(
                f"pipeline_schedule must be one of '1f1b', 'gpipe', 'interleaved'; got {self.pipeline_schedule!r}"
            )
        if self.pipeline_schedule == "interleaved" and self.virtual_pipeline_stages < 2:
            object.__setattr__(self, "virtual_pipeline_stages", 2)
        if self.virtual_pipeline_stages > 1 and self.pipeline_schedule != "interleaved":
            object.__setattr__(self, "pipeline_schedule", "interleaved")

    # -- derived quantities -------------------------------------------------------

    @property
    def total_devices(self) -> int:
        """Number of devices the configuration occupies: DP x TP x PP."""
        return self.data_parallel * self.tensor_parallel * self.pipeline_parallel

    @property
    def model_parallel_devices(self) -> int:
        """Devices holding one model replica: TP x PP."""
        return self.tensor_parallel * self.pipeline_parallel

    def num_microbatches(self, global_batch_size: int) -> int:
        """Number of micro-batches per pipeline per training step."""
        per_replica = self.batch_per_replica(global_batch_size)
        if per_replica % self.micro_batch_size != 0:
            raise ConfigurationError(
                f"per-replica batch ({per_replica}) must be divisible by micro_batch_size "
                f"({self.micro_batch_size})"
            )
        return per_replica // self.micro_batch_size

    def batch_per_replica(self, global_batch_size: int) -> int:
        """Sequences one data-parallel replica processes per step."""
        if global_batch_size % self.data_parallel != 0:
            raise ConfigurationError(
                f"global batch size ({global_batch_size}) must be divisible by the DP degree "
                f"({self.data_parallel})"
            )
        return global_batch_size // self.data_parallel

    def layers_per_stage(self, model: TransformerConfig) -> int:
        """Transformer layers resident on one pipeline stage (one device)."""
        if model.num_layers % self.pipeline_parallel != 0:
            raise ConfigurationError(
                f"{model.name}: number of layers ({model.num_layers}) must be divisible by the PP degree "
                f"({self.pipeline_parallel})"
            )
        return model.num_layers // self.pipeline_parallel

    @property
    def holds_embedding(self) -> bool:
        """Whether one device holds the embedding and runs the LM head: only without pipeline stages."""
        return self.pipeline_parallel == 1

    def parameters_per_device(self, model: TransformerConfig) -> float:
        """Model weights resident on one device: its stage's layers, plus the embedding when it holds it."""
        shard = TensorParallelShard(model=model, tensor_parallel=self.tensor_parallel)
        params = self.layers_per_stage(model) * shard.parameters_per_layer
        if self.holds_embedding:
            params += shard.embedding_parameters
        return params

    def layers_per_virtual_stage(self, model: TransformerConfig) -> int:
        """Layers per interleaved model chunk on one device."""
        per_stage = self.layers_per_stage(model)
        if per_stage % self.virtual_pipeline_stages != 0:
            raise ConfigurationError(
                f"layers per stage ({per_stage}) must be divisible by the number of virtual stages "
                f"({self.virtual_pipeline_stages})"
            )
        return per_stage // self.virtual_pipeline_stages

    def validate_for_model(self, model: TransformerConfig) -> None:
        """Raise :class:`ConfigurationError` if the config cannot map onto ``model``."""
        if model.num_heads % self.tensor_parallel != 0:
            raise ConfigurationError(
                f"{model.name}: TP degree {self.tensor_parallel} must divide the head count ({model.num_heads})"
            )
        self.layers_per_stage(model)
        self.layers_per_virtual_stage(model)

    @property
    def label(self) -> str:
        """The paper's ``DP-TP-PP-SP`` label for this configuration."""
        sp = self.tensor_parallel if self.sequence_parallel else 1
        return f"{self.data_parallel}-{self.tensor_parallel}-{self.pipeline_parallel}-{sp}"

    def summary(self) -> Dict[str, object]:
        """Flat summary for reports."""
        return {
            "dp": self.data_parallel,
            "tp": self.tensor_parallel,
            "pp": self.pipeline_parallel,
            "sp": self.sequence_parallel,
            "micro_batch": self.micro_batch_size,
            "schedule": self.pipeline_schedule,
            "virtual_stages": self.virtual_pipeline_stages,
            "total_devices": self.total_devices,
        }


def parse_parallelism_label(
    label: str,
    micro_batch_size: int = 1,
    pipeline_schedule: Optional[str] = None,
) -> ParallelismConfig:
    """Parse the paper's ``"DP-TP-PP-SP"`` notation into a :class:`ParallelismConfig`.

    Example: ``parse_parallelism_label("1-8-8-8")`` gives DP=1, TP=8, PP=8 with
    sequence parallelism enabled.
    """
    parts = label.replace(" ", "").split("-")
    if len(parts) != 4:
        raise ConfigurationError(f"expected 'DP-TP-PP-SP', got {label!r}")
    dp, tp, pp, sp = (int(part) for part in parts)
    if sp not in (1, tp):
        raise ConfigurationError(f"SP degree must be 1 or equal to TP ({tp}); got {sp}")
    return ParallelismConfig(
        data_parallel=dp,
        tensor_parallel=tp,
        pipeline_parallel=pp,
        sequence_parallel=(sp == tp and tp > 1),
        micro_batch_size=micro_batch_size,
        pipeline_schedule=pipeline_schedule or "1f1b",
    )
