"""End-to-end training-step time prediction.

The model composes the pieces built elsewhere in the package:

1. the :class:`~repro.parallelism.mapper.ParallelizationMapper` checks the
   (model, parallelism, batch) triple against the system and derives the
   micro-batch count, the pipeline schedule and each group's fabric, and the
   layer template of the (model, TP, SP, precision) configuration renders one
   layer's operators at the micro-batch shape,
2. the device kernel model prices every forward/backward kernel of one layer,
3. the collective model prices the tensor-parallel, pipeline-parallel, and
   data-parallel communication,
4. the pipeline schedule adds its bubble and the optimizer adds the weight
   update, and the activation-recomputation strategy adds its forward replay.

:meth:`~TrainingPerformanceModel.plan` does the mapping and takes every
operator to price from the model's layer templates (one per model, TP, SP
and precision, each building a layer shape's operators once);
:meth:`~TrainingPerformanceModel.finish` prices it.  The sweep batch planner
prices a whole generation of plans' queries in one batch between the two.

The resulting :class:`~repro.core.reports.TrainingReport` carries the same
compute / communication / other decomposition the paper uses in its
GPU-generation scaling study (Fig. 5) and the validation table (Table 1).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from ..caching import Memo
from ..comm.fabric import CollectiveModel, shared_collective_model
from ..hardware.cluster import SystemSpec
from ..hardware.datatypes import Precision
from ..memmodel.activations import ActivationModel, RecomputeStrategy
from ..memmodel.footprint import training_memory_breakdown
from ..models.transformer import TransformerConfig
from ..parallelism.config import ParallelismConfig
from ..parallelism.mapper import DistributedTrainingPlan, ParallelizationMapper
from ..perf.kernels import DeviceKernelModel
from ..workload.operators import CollectiveKind, CommunicationOp, GEMM, Operator
from ..workload.transformer_layer import layer_template
from .reports import KernelTimeEntry, TrainingReport, dram_bytes

#: Bytes the optimizer touches per parameter during the update step:
#: read FP16 gradient (2) + read/write FP32 master weight (8) + read/write the
#: two Adam moments (16) + write the FP16 weight copy (2).
OPTIMIZER_BYTES_PER_PARAMETER = 28.0


@dataclasses.dataclass(frozen=True)
class TrainingPlan:
    """Everything :meth:`TrainingPerformanceModel.finish` prices for one step.

    The operator tuples come from the model's layer templates and are shared
    by every plan of the same layer shape and TP scope.

    Attributes:
        mapping: The distributed execution plan of the step.
        recompute: The parsed activation-recomputation strategy.
        layers_per_stage: Transformer layers on one pipeline stage.
        forward_ops, backward_ops: One layer's forward / backward kernels.
        tp_comms: One layer's TP collectives, forward then backward.
        lm_head, pp_op, dp_op: The LM-head GEMM, the per-micro-batch pipeline
            send and the gradient all-reduce, each ``None`` when absent.
    """

    mapping: DistributedTrainingPlan
    recompute: RecomputeStrategy
    layers_per_stage: int
    forward_ops: Tuple[Operator, ...]
    backward_ops: Tuple[Operator, ...]
    tp_comms: Tuple[CommunicationOp, ...]
    lm_head: Optional[GEMM]
    pp_op: Optional[CommunicationOp]
    dp_op: Optional[CommunicationOp]

    def gemm_queries(self) -> List[GEMM]:
        """Every GEMM the finished report will ask the kernel model to price."""
        gemms = [op for op in self.forward_ops if isinstance(op, GEMM)]
        gemms += [op for op in self.backward_ops if isinstance(op, GEMM)]
        if self.lm_head is not None:
            gemms.append(self.lm_head)
        return gemms

    def collective_queries(self) -> List[CommunicationOp]:
        """Every non-trivial collective the report prices (trivial ones cost 0)."""
        ops = list(self.tp_comms)
        for op in (self.pp_op, self.dp_op):
            if op is not None:
                ops.append(op)
        return [op for op in ops if not op.is_trivial]


@dataclasses.dataclass
class TrainingPerformanceModel:
    """Predicts the training-step time of an LLM on a distributed system.

    Attributes:
        system: The hardware system.
        kernel_model: Device-level kernel timing model; built from the
            system's accelerator when not supplied.
        collective_model: Communication pricing model; built from the system
            when not supplied.
    """

    system: SystemSpec
    kernel_model: Optional[DeviceKernelModel] = None
    collective_model: Optional[CollectiveModel] = None

    def __post_init__(self) -> None:
        if self.kernel_model is None:
            self.kernel_model = DeviceKernelModel(accelerator=self.system.accelerator)
        if self.collective_model is None:
            self.collective_model = shared_collective_model(self.system)
        self._mapper = ParallelizationMapper(self.system)
        # One layer template per (model, TP, SP, precision): steps that differ
        # only in PP, DP or recompute share its operators (and their cached
        # hashes).
        self._templates = Memo(max_size=256)
        # Priced layers, keyed by (template operator tuple, repeat count):
        # every step of one layer shape reads one sum and one set of (frozen)
        # breakdown entries.
        self._layer_times = Memo(max_size=512)

    # -- helpers -----------------------------------------------------------------

    def _layer_time(self, ops: Tuple[Operator, ...], count: int) -> Tuple[float, Tuple[KernelTimeEntry, ...]]:
        """One layer's summed kernel time and its kernels' breakdown entries."""
        key = (ops, count)
        priced = self._layer_times.get(key)
        if priced is not None:
            return priced
        kernel_model = self.kernel_model
        total = 0.0
        entries = []
        for op in ops:
            point = kernel_model.evaluate(op)
            time = point.time + kernel_model.overhead(op)
            total += time
            entries.append(
                KernelTimeEntry(
                    name=op.name,
                    time=time,
                    count=count,
                    bound=point.bound,
                    flops=op.flops,
                    bytes_moved=dram_bytes(point, op),
                )
            )
        return self._layer_times.put(key, (total, tuple(entries)))

    def _weight_update_time(self, plan: DistributedTrainingPlan) -> float:
        """Optimizer (Adam) update time: a DRAM-streaming pass over the states."""
        params = plan.parameters_per_device
        dram = self.system.accelerator.memory.dram
        return params * OPTIMIZER_BYTES_PER_PARAMETER / (dram.bandwidth * dram.utilization)

    # -- main entry points ----------------------------------------------------------

    def predict(
        self,
        model: TransformerConfig,
        parallelism: ParallelismConfig,
        global_batch_size: int,
        seq_len: Optional[int] = None,
        precision: Precision = Precision.FP16,
        recompute: "RecomputeStrategy | str" = RecomputeStrategy.SELECTIVE,
    ) -> TrainingReport:
        """Predict the time of one training step (one global batch).

        Args:
            model: The transformer architecture to train.
            parallelism: DP/TP/PP/SP configuration.
            global_batch_size: Global batch size in sequences.
            seq_len: Sequence length (defaults to the model maximum).
            precision: Training compute precision.
            recompute: Activation recomputation strategy.
        """
        return self.finish(
            self.plan(
                model,
                parallelism,
                global_batch_size=global_batch_size,
                seq_len=seq_len,
                precision=precision,
                recompute=recompute,
            )
        )

    def plan(
        self,
        model: TransformerConfig,
        parallelism: ParallelismConfig,
        global_batch_size: int,
        seq_len: Optional[int] = None,
        precision: Precision = Precision.FP16,
        recompute: "RecomputeStrategy | str" = RecomputeStrategy.SELECTIVE,
    ) -> TrainingPlan:
        """Map the step onto the system and build its workload without pricing it.

        Runs everything :meth:`predict` does before pricing and issues no
        kernel or collective queries; ``finish(plan(...))`` is exactly
        :meth:`predict`.

        Raises:
            ConfigurationError, MappingError: The recompute strategy, mapping
                and layer-split errors :meth:`predict` raises, in that order.
        """
        recompute = RecomputeStrategy.parse(recompute)
        mapping = self._mapper.plan_training(
            model,
            parallelism,
            global_batch_size=global_batch_size,
            seq_len=seq_len,
            precision=precision,
        )
        layers_per_stage = parallelism.layers_per_stage(model)
        template = layer_template(
            self._templates,
            model,
            tensor_parallel=parallelism.tensor_parallel,
            sequence_parallel=parallelism.sequence_parallel,
            precision=precision,
        )
        shape = (parallelism.micro_batch_size, mapping.seq_len, mapping.seq_len)
        tokens = parallelism.micro_batch_size * mapping.seq_len
        pp_op = dp_op = None
        if parallelism.pipeline_parallel > 1:
            pp_op = CommunicationOp(
                name="pp_p2p",
                collective=CollectiveKind.POINT_TO_POINT,
                data_bytes=mapping.pipeline_p2p_bytes_per_microbatch,
                group_size=2,
                scope=mapping.pp_scope,
            )
        if parallelism.data_parallel > 1:
            # Each replica computes gradients on its share of the batch and
            # all-reduces them across the DP group before the update: the
            # weights the device holds times the gradient element size (FP16
            # gradients; the FP32 master copy stays with the optimizer).
            dp_op = CommunicationOp(
                name="dp_grad_all_reduce",
                collective=CollectiveKind.ALL_REDUCE,
                data_bytes=mapping.parameters_per_device * precision.bytes_per_element,
                group_size=parallelism.data_parallel,
                scope=mapping.dp_scope,
            )
        return TrainingPlan(
            mapping=mapping,
            recompute=recompute,
            layers_per_stage=layers_per_stage,
            forward_ops=template.forward_compute_ops(*shape),
            backward_ops=template.backward_compute_ops(*shape),
            tp_comms=template.communication(tokens, mapping.tp_scope),
            lm_head=template.lm_head(tokens) if parallelism.holds_embedding else None,
            pp_op=pp_op,
            dp_op=dp_op,
        )

    def finish(self, plan: TrainingPlan) -> TrainingReport:
        """Price a plan into the final report (see :meth:`plan`)."""
        mapping = plan.mapping
        model = mapping.model
        parallelism = mapping.parallelism
        layers_per_stage = plan.layers_per_stage
        microbatches = mapping.num_microbatches

        # Per-layer kernel times, each entry aggregated over layers and micro-batches.
        repeats = layers_per_stage * microbatches
        forward_layer, forward_entries = self._layer_time(plan.forward_ops, repeats)
        backward_layer, backward_entries = self._layer_time(plan.backward_ops, repeats)

        tp_comm_layer = 0.0
        for op in plan.tp_comms:
            tp_comm_layer += self.collective_model.time(op)
        # Forward plus the two backward GEMMs of the same FLOP count.
        lm_head_time = 0.0 if plan.lm_head is None else 3.0 * self.kernel_model.time(plan.lm_head)

        # Per-micro-batch, per-stage times.
        compute_per_microbatch = (forward_layer + backward_layer) * layers_per_stage + lm_head_time
        tp_comm_per_microbatch = tp_comm_layer * layers_per_stage

        # Activation recomputation replays (part of) the forward pass before backward.
        activation_model = ActivationModel(
            model=model,
            micro_batch=parallelism.micro_batch_size,
            seq_len=mapping.seq_len,
            tensor_parallel=parallelism.tensor_parallel,
            sequence_parallel=parallelism.sequence_parallel,
            precision=mapping.precision,
        )
        recompute_fraction = activation_model.recompute_flops_overhead(plan.recompute)
        recompute_per_microbatch = recompute_fraction * forward_layer * layers_per_stage

        compute_time = compute_per_microbatch * microbatches
        recompute_time = recompute_per_microbatch * microbatches
        tp_comm_time = tp_comm_per_microbatch * microbatches

        # The bubble applies to everything that streams through the pipeline.
        ideal_pipeline_time = compute_time + recompute_time + tp_comm_time
        bubble_time = mapping.pipeline.bubble_fraction * ideal_pipeline_time

        # One pipeline send per micro-batch and one exposed DP all-reduce per
        # step: the paper's model adds communication serially.
        pp_comm_time = 0.0 if plan.pp_op is None else self.collective_model.time(plan.pp_op) * microbatches
        dp_comm_time = 0.0 if plan.dp_op is None else self.collective_model.time(plan.dp_op)
        weight_update_time = self._weight_update_time(mapping)

        memory = training_memory_breakdown(
            model,
            parallelism,
            global_batch_size=mapping.global_batch_size,
            seq_len=mapping.seq_len,
            precision=mapping.precision,
            strategy=plan.recompute,
        )

        return TrainingReport(
            model_name=model.name,
            system_name=self.system.name,
            parallelism_label=parallelism.label,
            global_batch_size=mapping.global_batch_size,
            seq_len=mapping.seq_len,
            recompute_strategy=plan.recompute.value,
            compute_time=compute_time,
            recompute_time=recompute_time,
            tp_communication_time=tp_comm_time,
            pp_communication_time=pp_comm_time,
            dp_communication_time=dp_comm_time,
            bubble_time=bubble_time,
            weight_update_time=weight_update_time,
            memory=memory,
            kernel_breakdown=[*forward_entries, *backward_entries],
        )
