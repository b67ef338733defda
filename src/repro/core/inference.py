"""End-to-end inference latency prediction (prefill + autoregressive generation).

Inference typically runs with tensor parallelism only, across a handful of
devices within one node (paper Section 1.3).  The model prices:

* the **prefill / summarization** phase: a forward pass over the whole prompt,
  whose GEMMs may be compute- or memory-bound depending on the accelerator,
  batch size, and precision (Table 4 / Fig. 8 of the paper),
* the **generation / decode** phase: one forward pass per generated token over
  a single query token, dominated by streaming the weights and the KV-cache
  from DRAM, plus the per-layer tensor-parallel all-reduces whose latency term
  matters at these tiny message sizes (hence the double-binary-tree algorithm).

The decode phase supports two pricing modes (``decode_mode``):

* ``"average"`` (default): one representative decode step at the mid-point KV
  length, multiplied by the number of generated tokens -- the fast closed form.
* ``"exact"``: every generated token is priced at its true KV-cache length;
  the per-token GEMMs are evaluated as one batch through the vectorized
  roofline backend (:mod:`repro.perf.batched`), so exact pricing stays cheap.

All per-phase pricing lives in the reusable step-cost layer
(:class:`~repro.core.stepcost.StepCostModel`), and every operator comes from
that layer's templates; this module supplies the request-level
workload description, the memory admission check, and the
:class:`~repro.core.reports.InferenceReport` assembly on top of it.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from ..comm.fabric import CollectiveModel
from ..errors import ConfigurationError, MemoryCapacityError
from ..hardware.cluster import SystemSpec
from ..hardware.datatypes import Precision
from ..memmodel.footprint import InferenceMemoryBreakdown, inference_memory_breakdown
from ..models.transformer import TransformerConfig
from ..perf.kernels import DeviceKernelModel
from ..workload.inference import InferencePhaseSpec
from ..workload.operators import GEMM, Operator
from .reports import InferenceReport
from .stepcost import StepCostModel

#: Supported decode pricing modes.
DECODE_MODES = ("average", "exact")


@dataclasses.dataclass
class InferencePlan:
    """The priced-workload description of one :meth:`~InferencePerformanceModel.predict` call.

    Produced by :meth:`InferencePerformanceModel.plan` and consumed by
    :meth:`InferencePerformanceModel.finish`: the plan carries the validated
    spec, the memory admission result, and every *already built* operator
    list of the request, so ``finish(plan)`` prices the request without
    reconstructing the workload graph.  The split exists for the
    cross-scenario batch planner (:mod:`repro.sweep.batchplan`), which
    collects :meth:`gemm_queries` across many plans, prices them in one
    batched roofline call, and only then finishes each plan -- bit-identical
    to a direct ``predict`` (the per-op evaluations become memo hits).

    Attributes:
        spec: The validated request description.
        memory: The per-device memory breakdown (already admission-checked).
        decode_mode: Resolved decode pricing mode (``"average"``/``"exact"``).
        lm_head: The logits GEMM, or ``None``.
        prefill_ops: Compute operators of one prefill layer.
        prefill_comms: Communication operators of one prefill layer.
        decode_comms: Communication operators of one decode-step layer.
        decode_ops: Compute operators of the representative decode layer
            (average mode only).
        decode_steps: One decode layer's compute operators per generated
            token, at its true KV length (exact mode only).
    """

    spec: InferencePhaseSpec
    memory: InferenceMemoryBreakdown
    decode_mode: str
    lm_head: Optional[GEMM]
    prefill_ops: Sequence[Operator]
    prefill_comms: Sequence[Operator]
    decode_comms: Sequence[Operator]
    decode_ops: Optional[Sequence[Operator]] = None
    decode_steps: Optional[List[Sequence[Operator]]] = None

    def gemm_queries(self) -> List[GEMM]:
        """Every GEMM the finished report will ask the kernel model to price."""
        gemms = [op for op in self.prefill_ops if isinstance(op, GEMM)]
        if self.decode_ops is not None:
            gemms.extend(op for op in self.decode_ops if isinstance(op, GEMM))
        if self.decode_steps is not None:
            gemms.extend(op for ops in self.decode_steps for op in ops if isinstance(op, GEMM))
        if self.lm_head is not None:
            gemms.append(self.lm_head)
        return gemms


@dataclasses.dataclass
class InferencePerformanceModel:
    """Predicts LLM inference latency on a (usually single-node) system.

    Attributes:
        system: The hardware system; inference uses ``tensor_parallel`` of its
            devices.
        kernel_model: Device kernel timing model (defaults to the system's
            accelerator with standard GEMV utilization).
        collective_model: Communication model; defaults to the double-binary-
            tree algorithm, which is the latency-optimal choice for the small
            messages of the decode phase.
        check_memory: Whether to raise when weights + KV-cache exceed the
            aggregate device memory of the tensor-parallel group.
        decode_mode: Default decode pricing mode: ``"average"`` prices one
            representative step at the mid-point KV length, ``"exact"`` prices
            every generated token at its true KV length through the batched
            roofline backend.  Overridable per :meth:`predict` call.
        step_cost: The step-cost layer the phase reports are priced through
            (built in ``__post_init__``; shares the kernel and collective
            models above).
    """

    system: SystemSpec
    kernel_model: Optional[DeviceKernelModel] = None
    collective_model: Optional[CollectiveModel] = None
    check_memory: bool = True
    decode_mode: str = "average"
    step_cost: StepCostModel = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.decode_mode not in DECODE_MODES:
            raise ConfigurationError(f"decode_mode must be one of {DECODE_MODES}, got {self.decode_mode!r}")
        self.step_cost = StepCostModel(
            system=self.system,
            kernel_model=self.kernel_model,
            collective_model=self.collective_model,
        )
        self.kernel_model = self.step_cost.kernel_model
        self.collective_model = self.step_cost.collective_model

    # -- main entry point -----------------------------------------------------------------

    def predict(
        self,
        model: TransformerConfig,
        batch_size: int = 1,
        prompt_tokens: int = 200,
        generated_tokens: int = 200,
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
        include_lm_head: bool = True,
        decode_mode: Optional[str] = None,
    ) -> InferenceReport:
        """Predict the end-to-end latency of one inference request.

        Args:
            model: The transformer architecture being served.
            batch_size: Sequences served concurrently.
            prompt_tokens: Prompt (summarization) length per sequence.
            generated_tokens: Tokens generated per sequence.
            tensor_parallel: TP degree (number of devices used).
            precision: Weight/activation precision.
            include_lm_head: Whether to include the logits GEMM.
            decode_mode: ``"average"`` or ``"exact"``; defaults to the
                model-level :attr:`decode_mode`.

        Raises:
            MemoryCapacityError: When the weights plus the KV-cache do not fit
                into the devices' memory and ``check_memory`` is enabled.
        """
        return self.finish(
            self.plan(
                model,
                batch_size=batch_size,
                prompt_tokens=prompt_tokens,
                generated_tokens=generated_tokens,
                tensor_parallel=tensor_parallel,
                precision=precision,
                include_lm_head=include_lm_head,
                decode_mode=decode_mode,
            )
        )

    def plan(
        self,
        model: TransformerConfig,
        batch_size: int = 1,
        prompt_tokens: int = 200,
        generated_tokens: int = 200,
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
        include_lm_head: bool = True,
        decode_mode: Optional[str] = None,
    ) -> InferencePlan:
        """Validate the request and build its workload graph without pricing it.

        Runs everything :meth:`predict` does up to (and including) the memory
        admission check and the operator-list construction, but issues no
        kernel or collective queries.  ``finish(plan(...))`` is exactly
        :meth:`predict`; holding the plan lets a batch planner price many
        requests' GEMMs in one call first.

        Raises:
            MemoryCapacityError: Same admission check as :meth:`predict`.
        """
        decode_mode = self.decode_mode if decode_mode is None else decode_mode
        if decode_mode not in DECODE_MODES:
            raise ConfigurationError(f"decode_mode must be one of {DECODE_MODES}, got {decode_mode!r}")
        spec = InferencePhaseSpec(
            model=model,
            batch_size=batch_size,
            prompt_len=prompt_tokens,
            generated_tokens=generated_tokens,
            tensor_parallel=tensor_parallel,
            precision=precision,
            include_lm_head=include_lm_head,
        )
        memory = inference_memory_breakdown(
            model,
            batch_size=batch_size,
            context_len=prompt_tokens + generated_tokens,
            precision=precision,
            tensor_parallel=tensor_parallel,
        )
        if self.check_memory and not memory.fits(self.system.accelerator.dram_capacity):
            raise MemoryCapacityError(
                f"{model.name} with batch {batch_size} needs {memory.total_bytes / 1e9:.1f} GB per device, "
                f"but {self.system.accelerator.name} provides {self.system.accelerator.dram_capacity / 1e9:.1f} GB"
            )

        tp_scope = self.step_cost.tp_scope(tensor_parallel)
        template = self.step_cost.template(model, tensor_parallel, precision)
        prefill = spec.prefill_layer_spec()
        decode = spec.decode_layer_spec(spec.average_decode_kv_len)
        plan = InferencePlan(
            spec=spec,
            memory=memory,
            decode_mode=decode_mode,
            lm_head=template.lm_head(batch_size) if include_lm_head else None,
            prefill_ops=template.forward_compute_ops(*prefill.shape),
            prefill_comms=template.forward_communication(prefill.tokens, tp_scope),
            decode_comms=template.forward_communication(decode.tokens, tp_scope),
        )
        if decode_mode == "exact":
            plan.decode_steps = [
                template.forward_compute_ops(batch_size, 1, prompt_tokens + step) for step in range(generated_tokens)
            ]
        else:
            plan.decode_ops = template.forward_compute_ops(*decode.shape)
        return plan

    def finish(self, plan: InferencePlan) -> InferenceReport:
        """Price a plan into the final report (see :meth:`plan`)."""
        spec = plan.spec
        model = spec.model
        prefill = self.step_cost.phase_report(
            name="prefill",
            ops=plan.prefill_ops,
            comms=plan.prefill_comms,
            num_layers=model.num_layers,
            lm_head=plan.lm_head,
            repeats=1,
        )
        if plan.decode_mode == "exact":
            decode = self.step_cost.decode_report_exact(
                plan.decode_steps,
                comms=plan.decode_comms,
                num_layers=model.num_layers,
                lm_head=plan.lm_head,
            )
        else:
            decode = self.step_cost.phase_report(
                name="decode",
                ops=plan.decode_ops,
                comms=plan.decode_comms,
                num_layers=model.num_layers,
                lm_head=plan.lm_head,
                repeats=max(0, spec.generated_tokens),
            )
        return InferenceReport(
            model_name=model.name,
            system_name=self.system.name,
            tensor_parallel=spec.tensor_parallel,
            batch_size=spec.batch_size,
            prompt_tokens=spec.prompt_len,
            generated_tokens=spec.generated_tokens,
            prefill=prefill,
            decode=decode,
            memory=plan.memory,
        )
