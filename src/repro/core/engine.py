"""Facade: one object that exposes the whole performance-prediction pipeline.

``PerformancePredictionEngine`` wires the device kernel model, the collective
model, the memory model, and the training/inference predictors together for a
given :class:`~repro.hardware.cluster.SystemSpec`.  It is the recommended
entry point for users of the library::

    from repro import PerformancePredictionEngine, build_system, get_model
    from repro.parallelism import ParallelismConfig

    system = build_system("A100", num_devices=64, inter_node="HDR-IB")
    engine = PerformancePredictionEngine(system)
    report = engine.predict_training(
        get_model("GPT-175B"),
        ParallelismConfig(tensor_parallel=8, pipeline_parallel=8),
        global_batch_size=64,
    )
    print(report.step_time, report.breakdown())
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..comm.fabric import CollectiveModel, shared_collective_model
from ..hardware.cluster import SystemSpec
from ..hardware.datatypes import Precision
from ..memmodel.activations import RecomputeStrategy
from ..memmodel.footprint import (
    InferenceMemoryBreakdown,
    TrainingMemoryBreakdown,
    inference_memory_breakdown,
    training_memory_breakdown,
)
from ..models.transformer import TransformerConfig
from ..models.zoo import get_model
from ..parallelism.config import ParallelismConfig
from ..perf.kernels import DeviceKernelModel
from ..serving.fleet import FleetConfig, FleetReport, FleetSimulator
from ..serving.report import ServingReport, ServingSLO
from ..serving.request import Request, TraceConfig
from ..serving.scheduler import SchedulerConfig
from ..serving.simulator import ServingSimulator
from .bottleneck import decode_gemm_table, prefill_gemm_table
from .inference import InferencePerformanceModel
from .reports import GemmBottleneckEntry, InferenceReport, TrainingReport
from .training import TrainingPerformanceModel


class PerformancePredictionEngine:
    """High-level facade over the training and inference performance models."""

    def __init__(
        self,
        system: SystemSpec,
        kernel_model: Optional[DeviceKernelModel] = None,
        collective_model: Optional[CollectiveModel] = None,
    ):
        self.system = system
        self.kernel_model = kernel_model or DeviceKernelModel(accelerator=system.accelerator)
        self.collective_model = collective_model or shared_collective_model(system)
        self.training_model = TrainingPerformanceModel(
            system=system,
            kernel_model=self.kernel_model,
            collective_model=self.collective_model,
        )
        self.inference_model = InferencePerformanceModel(
            system=system,
            kernel_model=self.kernel_model,
        )

    @property
    def step_cost(self):
        """The engine's shared step-cost pricing layer.

        One :class:`~repro.core.stepcost.StepCostModel` per engine (and, via
        the sweep subsystem's per-system engine cache, one per system per
        process): its operator, collective, and attention-time caches survive
        across every inference prediction and serving simulation this engine
        runs, which is what keeps frontier sweeps from re-pricing the same
        kernels per scenario.  Its ``cache_hits`` / ``cache_misses`` counters
        expose the reuse.
        """
        return self.inference_model.step_cost

    # -- training -------------------------------------------------------------------

    def predict_training(
        self,
        model: "TransformerConfig | str",
        parallelism: ParallelismConfig,
        global_batch_size: int,
        seq_len: Optional[int] = None,
        precision: Precision = Precision.FP16,
        recompute: "RecomputeStrategy | str" = RecomputeStrategy.SELECTIVE,
    ) -> TrainingReport:
        """Predict the time of one training step; see :class:`TrainingPerformanceModel`."""
        model = get_model(model) if isinstance(model, str) else model
        precision = Precision.parse(precision)
        return self.training_model.predict(
            model,
            parallelism,
            global_batch_size=global_batch_size,
            seq_len=seq_len,
            precision=precision,
            recompute=recompute,
        )

    def training_memory(
        self,
        model: "TransformerConfig | str",
        parallelism: ParallelismConfig,
        global_batch_size: int,
        seq_len: Optional[int] = None,
        precision: Precision = Precision.FP16,
        recompute: "RecomputeStrategy | str" = RecomputeStrategy.SELECTIVE,
    ) -> TrainingMemoryBreakdown:
        """Per-device training memory breakdown for a parallelism configuration."""
        model = get_model(model) if isinstance(model, str) else model
        return training_memory_breakdown(
            model,
            parallelism,
            global_batch_size=global_batch_size,
            seq_len=seq_len,
            precision=precision,
            strategy=recompute,
        )

    # -- inference -------------------------------------------------------------------

    def predict_inference(
        self,
        model: "TransformerConfig | str",
        batch_size: int = 1,
        prompt_tokens: int = 200,
        generated_tokens: int = 200,
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
        decode_mode: str = "average",
    ) -> InferenceReport:
        """Predict end-to-end inference latency; see :class:`InferencePerformanceModel`.

        ``decode_mode`` selects between the default ``"average"`` closed form
        and the batched ``"exact"`` per-token KV pricing.
        """
        model = get_model(model) if isinstance(model, str) else model
        precision = Precision.parse(precision)
        return self.inference_model.predict(
            model,
            batch_size=batch_size,
            prompt_tokens=prompt_tokens,
            generated_tokens=generated_tokens,
            tensor_parallel=tensor_parallel,
            precision=precision,
            decode_mode=decode_mode,
        )

    def inference_memory(
        self,
        model: "TransformerConfig | str",
        batch_size: int = 1,
        context_len: int = 400,
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
    ) -> InferenceMemoryBreakdown:
        """Per-device inference memory breakdown (weights + KV-cache)."""
        model = get_model(model) if isinstance(model, str) else model
        return inference_memory_breakdown(
            model,
            batch_size=batch_size,
            context_len=context_len,
            precision=precision,
            tensor_parallel=tensor_parallel,
        )

    # -- serving -------------------------------------------------------------------------

    def predict_serving(
        self,
        model: "TransformerConfig | str",
        workload: "TraceConfig | Sequence[Request]",
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
        scheduler: Optional[SchedulerConfig] = None,
        slo: Optional[ServingSLO] = None,
        include_lm_head: bool = True,
    ) -> ServingReport:
        """Simulate request-level serving of ``model`` on this system.

        ``workload`` is a seeded :class:`~repro.serving.request.TraceConfig`
        (or an explicit request list); the simulation advances in continuous-
        batching prefill and epoch-fused decode steps priced by this engine's
        shared :attr:`step_cost` layer, so repeated simulations (e.g. a load-
        frontier sweep) reuse one set of operator/attention-time caches.  See
        :class:`~repro.serving.simulator.ServingSimulator`.
        """
        model = get_model(model) if isinstance(model, str) else model
        precision = Precision.parse(precision)
        simulator = ServingSimulator(
            system=self.system,
            model=model,
            tensor_parallel=tensor_parallel,
            precision=precision,
            step_cost=self.step_cost,
            scheduler_config=scheduler,
            slo=slo,
            include_lm_head=include_lm_head,
        )
        return simulator.run(workload)

    def predict_fleet(
        self,
        model: "TransformerConfig | str",
        fleet: FleetConfig,
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
    ) -> FleetReport:
        """Simulate a fleet of engine replicas of ``model`` behind a router.

        Every replica shares this engine's :attr:`step_cost` layer, so the
        whole fleet (and every scenario of a fleet sweep) prices steps
        through one cache.  See
        :class:`~repro.serving.fleet.FleetSimulator` for the routing paths
        and :class:`~repro.serving.fleet.FleetReport` for the aggregate.
        """
        model = get_model(model) if isinstance(model, str) else model
        precision = Precision.parse(precision)
        simulator = FleetSimulator(
            system=self.system,
            model=model,
            fleet=fleet,
            tensor_parallel=tensor_parallel,
            precision=precision,
            step_cost=self.step_cost,
        )
        return simulator.run()

    # -- bottleneck views ----------------------------------------------------------------

    def prefill_bottlenecks(
        self,
        model: "TransformerConfig | str",
        batch_size: int = 1,
        prompt_tokens: int = 200,
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
    ) -> List[GemmBottleneckEntry]:
        """Per-GEMM bound-type table for the prefill phase (paper Table 4)."""
        model = get_model(model) if isinstance(model, str) else model
        return prefill_gemm_table(
            model,
            accelerator=self.system.accelerator,
            batch_size=batch_size,
            prompt_tokens=prompt_tokens,
            tensor_parallel=tensor_parallel,
            precision=precision,
            gemm_model=self.kernel_model.gemm_model,
        )

    def decode_bottlenecks(
        self,
        model: "TransformerConfig | str",
        batch_size: int = 1,
        kv_len: int = 200,
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
    ) -> List[GemmBottleneckEntry]:
        """Per-GEMM bound-type table for one decode step."""
        model = get_model(model) if isinstance(model, str) else model
        return decode_gemm_table(
            model,
            accelerator=self.system.accelerator,
            batch_size=batch_size,
            kv_len=kv_len,
            tensor_parallel=tensor_parallel,
            precision=precision,
            gemm_model=self.kernel_model.gemm_model,
        )
