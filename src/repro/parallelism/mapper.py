"""Parallelization mapper: place a workload onto a system under a parallelism config.

The mapper is the glue between the workload layer and the performance
prediction engine.  Given a model, a :class:`ParallelismConfig`, the training
hyper-parameters, and a :class:`~repro.hardware.cluster.SystemSpec`, it
derives the *distributed execution plan*: which fraction of the model and
batch one device executes, how many micro-batches stream through the
pipeline, which fabric each communication group uses, and the per-device
building blocks the engine then prices with the roofline and collective
models.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..errors import MappingError
from ..hardware.cluster import SystemSpec
from ..hardware.datatypes import Precision
from ..models.transformer import TransformerConfig
from ..workload.training import TrainingMicrobatchSpec
from .config import ParallelismConfig
from .data_parallel import DataParallelPlan
from .megatron import TensorParallelShard
from .pipeline import PipelineSchedule, pipeline_p2p_volume_per_microbatch


@dataclasses.dataclass(frozen=True)
class DistributedTrainingPlan:
    """Everything the engine needs to price one distributed training step.

    Attributes:
        model: The transformer architecture.
        parallelism: The DP/TP/PP/SP configuration.
        system: The hardware system the workload runs on.
        global_batch_size: Sequences per optimizer step across all replicas.
        seq_len: Training sequence length.
        precision: Compute precision.
        microbatch_spec: Work one pipeline stage does per micro-batch.
        num_microbatches: Micro-batches per pipeline per step.
        pipeline: The pipeline schedule with its bubble model.
        data_parallel_plan: The DP gradient-synchronization plan.
        tp_scope: Fabric scope of tensor-parallel collectives.
        dp_scope: Fabric scope of data-parallel collectives.
        pp_scope: Fabric scope of pipeline point-to-point transfers.
    """

    model: TransformerConfig
    parallelism: ParallelismConfig
    system: SystemSpec
    global_batch_size: int
    seq_len: int
    precision: Precision
    microbatch_spec: TrainingMicrobatchSpec
    num_microbatches: int
    pipeline: PipelineSchedule
    data_parallel_plan: DataParallelPlan
    tp_scope: str
    dp_scope: str
    pp_scope: str

    @property
    def parameters_per_device(self) -> float:
        """Model weights resident on one device."""
        shard = TensorParallelShard(model=self.model, tensor_parallel=self.parallelism.tensor_parallel)
        layers = self.parallelism.layers_per_stage(self.model)
        include_embedding = self.parallelism.pipeline_parallel == 1
        embedding = shard.embedding_parameters if include_embedding else 0.0
        return layers * shard.parameters_per_layer + embedding

    @property
    def pipeline_p2p_bytes_per_microbatch(self) -> float:
        """Bytes one stage exchanges with its neighbours per micro-batch."""
        if self.parallelism.pipeline_parallel == 1:
            return 0.0
        return pipeline_p2p_volume_per_microbatch(
            self.model,
            micro_batch=self.parallelism.micro_batch_size,
            seq_len=self.seq_len,
            precision=self.precision,
            virtual_stages=self.parallelism.virtual_pipeline_stages,
            tensor_parallel=self.parallelism.tensor_parallel,
            sequence_parallel=self.parallelism.sequence_parallel,
        )

    def summary(self) -> Dict[str, object]:
        """Flat summary for reports and logging."""
        return {
            "model": self.model.name,
            "system": self.system.name,
            "parallelism": self.parallelism.label,
            "global_batch": self.global_batch_size,
            "seq_len": self.seq_len,
            "micro_batches": self.num_microbatches,
            "layers_per_stage": self.parallelism.layers_per_stage(self.model),
            "parameters_per_device": self.parameters_per_device,
        }


class ParallelizationMapper:
    """Maps (model, parallelism, batch) onto a system."""

    def __init__(self, system: SystemSpec):
        self.system = system

    def _scope_for_group(self, group_size: int, spans_nodes: bool) -> str:
        """Decide whether a communication group stays within a node."""
        if spans_nodes and self.system.num_nodes > 1:
            return "inter_node"
        if group_size <= self.system.devices_per_node:
            return "intra_node"
        return "inter_node"

    def plan_training(
        self,
        model: TransformerConfig,
        parallelism: ParallelismConfig,
        global_batch_size: int,
        seq_len: Optional[int] = None,
        precision: Precision = Precision.FP16,
    ) -> DistributedTrainingPlan:
        """Build the distributed execution plan for one training step.

        Raises:
            MappingError: If the configuration needs more devices than the
                system provides or cannot be applied to the model.
        """
        parallelism.validate_for_model(model)
        if parallelism.total_devices > self.system.num_devices:
            raise MappingError(
                f"configuration {parallelism.label} needs {parallelism.total_devices} devices but the "
                f"system {self.system.name!r} only has {self.system.num_devices}"
            )
        sequence_length = model.max_seq_len if seq_len is None else seq_len
        num_microbatches = parallelism.num_microbatches(global_batch_size)
        layers_per_stage = parallelism.layers_per_stage(model)

        microbatch_spec = TrainingMicrobatchSpec(
            model=model,
            micro_batch=parallelism.micro_batch_size,
            seq_len=sequence_length,
            layers_per_stage=layers_per_stage,
            tensor_parallel=parallelism.tensor_parallel,
            sequence_parallel=parallelism.sequence_parallel,
            precision=precision,
            include_embedding=parallelism.pipeline_parallel == 1,
        )
        pipeline = PipelineSchedule(
            pipeline_parallel=parallelism.pipeline_parallel,
            num_microbatches=num_microbatches,
            schedule=parallelism.pipeline_schedule,
            virtual_stages=parallelism.virtual_pipeline_stages,
        )
        dp_plan = DataParallelPlan(
            model=model,
            data_parallel=parallelism.data_parallel,
            tensor_parallel=parallelism.tensor_parallel,
            layers_on_device=layers_per_stage,
            gradient_precision=precision,
            include_embedding=parallelism.pipeline_parallel == 1,
        )

        # TP (and SP) groups are always placed within a node; DP and PP groups
        # span nodes as soon as the job uses more than one node.
        tp_scope = self._scope_for_group(parallelism.tensor_parallel, spans_nodes=False)
        dp_spans_nodes = parallelism.total_devices > self.system.devices_per_node and parallelism.data_parallel > 1
        pp_spans_nodes = parallelism.total_devices > self.system.devices_per_node and parallelism.pipeline_parallel > 1
        dp_scope = self._scope_for_group(parallelism.data_parallel, spans_nodes=dp_spans_nodes)
        pp_scope = self._scope_for_group(parallelism.pipeline_parallel, spans_nodes=pp_spans_nodes)

        return DistributedTrainingPlan(
            model=model,
            parallelism=parallelism,
            system=self.system,
            global_batch_size=global_batch_size,
            seq_len=sequence_length,
            precision=precision,
            microbatch_spec=microbatch_spec,
            num_microbatches=num_microbatches,
            pipeline=pipeline,
            data_parallel_plan=dp_plan,
            tp_scope=tp_scope,
            dp_scope=dp_scope,
            pp_scope=pp_scope,
        )
