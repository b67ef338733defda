"""Parallelization mapper: place a workload onto a system under a parallelism config.

Given a model, a :class:`ParallelismConfig`, the training hyper-parameters,
and a :class:`~repro.hardware.cluster.SystemSpec`, the mapper checks that the
configuration fits the model and the system and derives the *distributed
execution plan*: how many micro-batches stream through which pipeline
schedule, which fabric each communication group uses, and what one device
holds and sends.  The training model takes one layer's operators from its
layer templates and prices the plan with the roofline and collective models.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..errors import MappingError
from ..hardware.cluster import SystemSpec
from ..hardware.datatypes import Precision
from ..models.transformer import TransformerConfig
from .config import ParallelismConfig
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
        num_microbatches: Micro-batches per pipeline per step.
        pipeline: The pipeline schedule with its bubble model.
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
    num_microbatches: int
    pipeline: PipelineSchedule
    tp_scope: str
    dp_scope: str
    pp_scope: str

    @property
    def parameters_per_device(self) -> float:
        """Model weights resident on one device (see :meth:`ParallelismConfig.parameters_per_device`)."""
        return self.parallelism.parameters_per_device(self.model)

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
        pipeline = PipelineSchedule(
            pipeline_parallel=parallelism.pipeline_parallel,
            num_microbatches=num_microbatches,
            schedule=parallelism.pipeline_schedule,
            virtual_stages=parallelism.virtual_pipeline_stages,
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
            num_microbatches=num_microbatches,
            pipeline=pipeline,
            tp_scope=tp_scope,
            dp_scope=dp_scope,
            pp_scope=pp_scope,
        )
