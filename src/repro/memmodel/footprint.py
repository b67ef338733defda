"""Memory-footprint breakdowns for training and inference (paper Sections 3.3, 3.5, 5.1).

Training memory per device consists of model parameters, gradients, optimizer
states, and activations; the mix depends on the parallelism mapping and the
activation-recomputation strategy.  Inference memory consists of the weights
and the KV-cache, whose size the paper gives as

    KV bytes = 2 * batch * context * precision_bytes * layers * embedding_dim

(the factor 2 covers the key and value tensors; for grouped-query-attention
models the embedding dimension is replaced by the KV-head width).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..errors import ConfigurationError, MemoryCapacityError
from ..hardware.datatypes import MASTER_PRECISION, Precision
from ..models.transformer import TransformerConfig
from ..parallelism.config import ParallelismConfig
from ..parallelism.megatron import TensorParallelShard
from ..parallelism.pipeline import PipelineSchedule
from .activations import ActivationModel, RecomputeStrategy

#: Adam keeps a first and a second moment per master weight.
ADAM_STATES_PER_PARAMETER = 2


@dataclasses.dataclass(frozen=True)
class TrainingMemoryBreakdown:
    """Per-device training memory footprint, in bytes.

    Attributes:
        parameter_bytes: Model weights at the training precision.
        gradient_bytes: Gradient buffer at the training precision.
        optimizer_bytes: Master weights plus Adam moments (FP32).
        activation_bytes: Stored activations under the chosen strategy.
    """

    parameter_bytes: float
    gradient_bytes: float
    optimizer_bytes: float
    activation_bytes: float

    @property
    def total_bytes(self) -> float:
        """Total per-device memory footprint."""
        return self.parameter_bytes + self.gradient_bytes + self.optimizer_bytes + self.activation_bytes

    @property
    def model_state_bytes(self) -> float:
        """Parameters + gradients + optimizer states (everything but activations)."""
        return self.parameter_bytes + self.gradient_bytes + self.optimizer_bytes

    def fits(self, capacity_bytes: float) -> bool:
        """Whether the footprint fits into ``capacity_bytes`` of device memory."""
        return self.total_bytes <= capacity_bytes

    def as_dict(self) -> Dict[str, float]:
        """Flat dict view, in bytes."""
        return {
            "parameters": self.parameter_bytes,
            "gradients": self.gradient_bytes,
            "optimizer": self.optimizer_bytes,
            "activations": self.activation_bytes,
            "total": self.total_bytes,
        }

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe dict view (field names, in bytes)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "TrainingMemoryBreakdown":
        """Rebuild a breakdown from :meth:`to_dict` output."""
        return cls(**{field.name: data[field.name] for field in dataclasses.fields(cls)})


@dataclasses.dataclass(frozen=True)
class InferenceMemoryBreakdown:
    """Per-device inference memory footprint, in bytes."""

    weight_bytes: float
    kv_cache_bytes: float
    activation_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        """Total per-device memory footprint."""
        return self.weight_bytes + self.kv_cache_bytes + self.activation_bytes

    def fits(self, capacity_bytes: float) -> bool:
        """Whether the footprint fits into ``capacity_bytes`` of device memory."""
        return self.total_bytes <= capacity_bytes

    def as_dict(self) -> Dict[str, float]:
        """Flat dict view, in bytes."""
        return {
            "weights": self.weight_bytes,
            "kv_cache": self.kv_cache_bytes,
            "activations": self.activation_bytes,
            "total": self.total_bytes,
        }

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe dict view (field names, in bytes)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "InferenceMemoryBreakdown":
        """Rebuild a breakdown from :meth:`to_dict` output."""
        return cls(**{field.name: data[field.name] for field in dataclasses.fields(cls)})


def kv_cache_bytes(
    model: TransformerConfig,
    batch_size: int,
    context_len: int,
    precision: Precision = Precision.FP16,
    tensor_parallel: int = 1,
) -> float:
    """KV-cache size per device (paper Section 3.5).

    ``2 x batch x context x precision x layers x kv_width / TP`` where the KV
    width is the full embedding dimension for standard multi-head attention
    and ``num_kv_heads x head_dim`` for grouped-query attention.
    """
    if batch_size < 1 or context_len < 0 or tensor_parallel < 1:
        raise ConfigurationError("batch_size, context_len and tensor_parallel must be valid")
    kv_width = model.num_kv_heads * model.head_dim
    total = 2.0 * batch_size * context_len * precision.bytes_per_element * model.num_layers * kv_width
    return total / tensor_parallel


def model_weight_bytes(
    model: TransformerConfig,
    precision: Precision = Precision.FP16,
    tensor_parallel: int = 1,
) -> float:
    """Weight bytes per device under TP sharding: every layer plus the vocabulary-sharded embedding."""
    shard = TensorParallelShard(model=model, tensor_parallel=tensor_parallel)
    params = model.num_layers * shard.parameters_per_layer + shard.embedding_parameters
    return params * precision.bytes_per_element


def training_memory_breakdown(
    model: TransformerConfig,
    parallelism: ParallelismConfig,
    global_batch_size: int,
    seq_len: Optional[int] = None,
    precision: Precision = Precision.FP16,
    strategy: "RecomputeStrategy | str" = RecomputeStrategy.SELECTIVE,
    in_flight_microbatches: Optional[int] = None,
) -> TrainingMemoryBreakdown:
    """Per-device training memory breakdown for a parallelism configuration.

    Args:
        model: The transformer architecture.
        parallelism: The DP/TP/PP/SP configuration.
        global_batch_size: Global batch size in sequences.
        seq_len: Sequence length (defaults to the model's maximum).
        precision: Training precision of weights/gradients/activations.
        strategy: Activation recomputation strategy.
        in_flight_microbatches: Number of micro-batches whose activations are
            simultaneously alive on the busiest (first) pipeline stage.
            Defaults to the value implied by the pipeline schedule.
    """
    parallelism.validate_for_model(model)
    sequence_length = model.max_seq_len if seq_len is None else seq_len
    layers_per_stage = parallelism.layers_per_stage(model)

    params_per_device = parallelism.parameters_per_device(model)
    parameter_bytes = params_per_device * precision.bytes_per_element
    gradient_bytes = params_per_device * precision.bytes_per_element
    optimizer_bytes = params_per_device * MASTER_PRECISION.bytes_per_element * (1 + ADAM_STATES_PER_PARAMETER)

    activation_model = ActivationModel(
        model=model,
        micro_batch=parallelism.micro_batch_size,
        seq_len=sequence_length,
        tensor_parallel=parallelism.tensor_parallel,
        sequence_parallel=parallelism.sequence_parallel,
        precision=precision,
    )
    if in_flight_microbatches is None:
        schedule = PipelineSchedule(
            pipeline_parallel=parallelism.pipeline_parallel,
            num_microbatches=parallelism.num_microbatches(global_batch_size),
            schedule=parallelism.pipeline_schedule,
            virtual_stages=parallelism.virtual_pipeline_stages,
        )
        in_flight = schedule.in_flight_microbatches
    else:
        in_flight = max(1, in_flight_microbatches)
    activation_bytes = activation_model.activation_bytes(
        layers_per_stage,
        strategy,
        in_flight_microbatches=in_flight,
    )

    return TrainingMemoryBreakdown(
        parameter_bytes=parameter_bytes,
        gradient_bytes=gradient_bytes,
        optimizer_bytes=optimizer_bytes,
        activation_bytes=activation_bytes,
    )


def inference_memory_breakdown(
    model: TransformerConfig,
    batch_size: int,
    context_len: int,
    precision: Precision = Precision.FP16,
    tensor_parallel: int = 1,
) -> InferenceMemoryBreakdown:
    """Per-device inference memory breakdown (weights + KV-cache + activations)."""
    weights = model_weight_bytes(model, precision=precision, tensor_parallel=tensor_parallel)
    kv = kv_cache_bytes(
        model,
        batch_size=batch_size,
        context_len=context_len,
        precision=precision,
        tensor_parallel=tensor_parallel,
    )
    # Transient activations of the widest layer output (a small term at batch sizes ~1-16).
    activations = (
        batch_size * model.hidden_size * max(1, model.ffn_hidden_size // max(1, tensor_parallel))
        * precision.bytes_per_element
        / model.hidden_size
    )
    return InferenceMemoryBreakdown(weight_bytes=weights, kv_cache_bytes=kv, activation_bytes=activations)


def check_training_fits(
    breakdown: TrainingMemoryBreakdown,
    capacity_bytes: float,
    label: str = "configuration",
) -> None:
    """Raise :class:`MemoryCapacityError` when the footprint exceeds the device memory."""
    if not breakdown.fits(capacity_bytes):
        raise MemoryCapacityError(
            f"{label}: footprint {breakdown.total_bytes / 1e9:.1f} GB exceeds device capacity "
            f"{capacity_bytes / 1e9:.1f} GB"
        )
