"""Registered Study declarations for every paper table and figure.

Each builder returns the :class:`~repro.studies.study.Study` behind one of
the paper's evaluation artifacts; the registry name doubles as the CLI name
(``python -m repro run table4_gemm_bottlenecks``).  The artifact mapping:

==========================================  ==================================
Registered study                            Paper artifact
==========================================  ==================================
``table1_training_validation``              Table 1 (training validation)
``table2_inference_validation``             Table 2 (inference validation)
``table4_gemm_bottlenecks``                 Table 4 (prefill GEMM bound types)
``fig3_gemv_validation``                    Fig. 3 (GEMV calibration)
``fig4_memory_breakdown``                   Fig. 4 (training memory dissection)
``fig5_gpu_generation_scaling``             Fig. 5 (A100 -> B200 scaling)
``fig6_technology_node_scaling``            Fig. 6 (logic node x HBM x network)
``fig7_bound_breakdown``                    Fig. 7 (bound-fraction view of Fig. 6)
``fig8_inference_boundedness``              Fig. 8 (prefill boundedness + inset)
``fig9_memory_technology_scaling``          Fig. 9 (DRAM technology scaling)
``serving_latency_throughput_frontier``     beyond the paper: serving frontier
``fleet_load_frontier``                     beyond the paper: fleet frontier
``fleet_resilience``                        beyond the paper: fleet resilience
==========================================  ==================================

Run one with ``paper.<builder>(...).run()`` or ``get_study(name, ...).run()``;
the declarations here are the single source of truth for what each artifact
sweeps.  Two artifacts need one step beyond the table: Fig. 3's raw
:class:`~repro.calibration.gemv.GemvValidationResult` is
``runner.evaluate(next(fig3_gemv_validation().scenarios()))``, and Fig. 9's
dashed reference lines come from :func:`h100_reference_latency`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..hardware.accelerator import get_accelerator
from ..hardware.cluster import build_system, preset_cluster
from ..hardware.datatypes import Precision
from ..hardware.memory import get_dram_technology
from ..hardware.technology import NODE_ORDER
from ..hardware.uarch import ResourceBudget
from ..memmodel.activations import RecomputeStrategy
from ..models.transformer import TransformerConfig
from ..models.zoo import get_model
from ..parallelism.config import ParallelismConfig, parse_parallelism_label
from ..serving.faults import FaultConfig, RetryPolicy
from ..serving.fleet import FleetConfig
from ..serving.report import ServingSLO
from ..serving.request import FleetTraceConfig, LengthDistribution, TenantTrace, TraceConfig
from ..serving.scheduler import SchedulerConfig
from ..serving.simulator import ServingConfig
from ..sweep.runner import SweepRunner, default_runner
from ..sweep.scenario import Scenario
from ..validation.reference import (
    CASE_STUDY_CONFIGS,
    GPU_GENERATION_SCALING_SYSTEMS,
    TABLE1_TRAINING_ROWS,
    TABLE2_INFERENCE_ROWS,
)
from .registry import register_study
from .study import Study


# ---------------------------------------------------------------------------
# Table 1: training-time validation on A100 clusters
# ---------------------------------------------------------------------------

@register_study(artifact="Table 1", description="Predicted vs published training time per batch (A100 clusters)")
def table1_training_validation(rows=None) -> Study:
    """The Table-1 validation sweep: one case per published Megatron row."""
    rows = rows if rows is not None else TABLE1_TRAINING_ROWS
    cases = [
        {
            "model": row.model,
            "num_gpus": row.num_gpus,
            "parallelism": parse_parallelism_label(row.parallelism_label, micro_batch_size=row.micro_batch_size),
            "recompute": row.recompute,
            "reference_s": row.reference_seconds,
            "paper_pred_s": row.paper_prediction_seconds,
            "system": build_system(
                "A100",
                num_devices=row.num_gpus,
                intra_node="NVLink3",
                inter_node="HDR-IB",
                devices_per_node=8,
            ),
            "global_batch_size": row.global_batch_size,
        }
        for row in rows
    ]
    return Study(
        name="table1_training_validation",
        kind="training",
        axes={"case": cases},
        columns=("model", "num_gpus", "parallelism", "recompute", "reference_s", "paper_pred_s"),
        extract="training_validation",
        derive=("relative_error", {"predicted": "predicted_s", "reference": "reference_s"}),
        artifact="Table 1",
    )


# ---------------------------------------------------------------------------
# Table 2: inference-latency validation on A100 / H100 systems
# ---------------------------------------------------------------------------

@register_study(artifact="Table 2", description="Predicted vs NVIDIA-reported Llama-2 inference latency")
def table2_inference_validation(rows=None, decode_mode: str = "average") -> Study:
    """The Table-2 validation sweep: one case per NVIDIA-reported row."""
    rows = rows if rows is not None else TABLE2_INFERENCE_ROWS
    cases = [
        {
            "model": row.model,
            "gpu": row.gpu,
            "num_gpus": row.num_gpus,
            "nvidia_ms": row.nvidia_latency_ms,
            "paper_pred_ms": row.paper_prediction_ms,
            "system": build_system(
                row.gpu,
                num_devices=max(1, row.num_gpus),
                intra_node="NVLink3" if row.gpu.upper() == "A100" else "NVLink4",
                inter_node="NDR-IB",
                devices_per_node=8,
            ),
            "batch_size": row.batch_size,
            "prompt_tokens": row.prompt_tokens,
            "generated_tokens": row.generated_tokens,
            "tensor_parallel": row.num_gpus,
        }
        for row in rows
    ]
    return Study(
        name="table2_inference_validation",
        kind="inference",
        axes={"case": cases},
        fixed={"decode_mode": decode_mode},
        columns=("model", "gpu", "num_gpus", "nvidia_ms", "paper_pred_ms"),
        extract="inference_validation",
        derive=("relative_error", {"predicted": "predicted_ms", "reference": "nvidia_ms"}),
        artifact="Table 2",
    )


# ---------------------------------------------------------------------------
# Table 4: per-GEMM bottlenecks of the prefill phase
# ---------------------------------------------------------------------------

@register_study(artifact="Table 4", description="Time and bound type of each prefill GEMM per layer")
def table4_gemm_bottlenecks(
    model_name: str = "Llama2-13B",
    gpus: Sequence[str] = ("A100", "H100"),
    batch_size: int = 1,
    prompt_tokens: int = 200,
) -> Study:
    """The Table-4 bottleneck sweep; fully name-based, so it JSON-serializes."""
    return Study(
        name="table4_gemm_bottlenecks",
        kind="prefill_bottlenecks",
        axes={"gpu": list(gpus)},
        fixed={
            "model": model_name,
            "batch_size": batch_size,
            "prompt_tokens": prompt_tokens,
            "tensor_parallel": 1,
            "precision": "fp16",
        },
        rename={"gpu": "accelerator"},
        extract="gemm_bottlenecks",
        artifact="Table 4",
    )


# ---------------------------------------------------------------------------
# Fig. 3: GEMV validation
# ---------------------------------------------------------------------------

@register_study(artifact="Fig. 3", description="GEMV latency validation, varied vs constant DRAM utilization")
def fig3_gemv_validation(num_clusters: int = 3, seed: int = 2024) -> Study:
    """The Fig.-3 calibration/validation flow (a single-scenario study)."""
    return Study(
        name="fig3_gemv_validation",
        kind="gemv_validation",
        fixed={"num_clusters": num_clusters, "seed": seed},
        extract="gemv_summary",
        artifact="Fig. 3",
    )


# ---------------------------------------------------------------------------
# Fig. 4: training memory dissection
# ---------------------------------------------------------------------------

#: Table-1 parallelism/batch settings reused by the Fig.-4 memory dissection.
_FIG4_TABLE1_CONFIG = {
    "GPT-175B": ("1-8-8-1", 64),
    "GPT-530B": ("1-8-35-1", 280),
    "GPT-1008B": ("1-8-64-1", 512),
}


@register_study(artifact="Fig. 4", description="Per-device training memory breakdown per recompute strategy")
def fig4_memory_breakdown(
    models: Sequence[str] = ("GPT-175B", "GPT-530B", "GPT-1008B"),
    strategies: Sequence[str] = ("none", "selective", "full"),
    device_memory_gb: float = 80.0,
) -> Study:
    """The Fig.-4 memory sweep: models (with their Table-1 configs) x strategies."""
    cases = []
    for model_name in models:
        label, batch = _FIG4_TABLE1_CONFIG[model_name]
        cases.append(
            {
                "model": model_name,
                "parallelism": parse_parallelism_label(label, micro_batch_size=1),
                "global_batch_size": batch,
            }
        )
    return Study(
        name="fig4_memory_breakdown",
        kind="training_memory",
        axes={"case": cases, "strategy": list(strategies)},
        rename={"strategy": "recompute"},
        columns=("model", "strategy"),
        extract="training_memory_gb",
        derive=("fits_memory", {"device_memory_gb": device_memory_gb}),
        artifact="Fig. 4",
    )


# ---------------------------------------------------------------------------
# Fig. 5: training performance scaling across GPU generations
# ---------------------------------------------------------------------------

#: Per-generation training precision: H100/H200 use the FP8 transformer
#: engine, B200 additionally enables FP4 processing, as the paper describes.
GENERATION_PRECISION = {
    "A100": Precision.FP16,
    "H100": Precision.FP8,
    "H200": Precision.FP8,
    "B200": Precision.FP4,
}


@register_study(artifact="Fig. 5", description="GPT-175B training time across A100..B200 preset clusters")
def fig5_gpu_generation_scaling(
    systems: Optional[Sequence] = None,
    model_name: str = "GPT-175B",
    virtual_pipeline_stages: int = 6,
) -> Study:
    """The Fig.-5 generation sweep: one case per preset cluster.

    The "-L" (large-batch) variants exploit their larger DRAM capacity with
    both a 4x global batch and a larger micro-batch, as the paper's
    narrative describes.
    """
    systems = systems if systems is not None else GPU_GENERATION_SCALING_SYSTEMS
    case = CASE_STUDY_CONFIGS[model_name]
    model = get_model(model_name)
    cases = []
    for system_name, batch_size in systems:
        generation = system_name.split("-")[0].upper()
        precision = GENERATION_PRECISION.get(generation, Precision.FP16)
        large_memory_variant = system_name.upper().endswith("-L")
        cases.append(
            {
                "system": preset_cluster(system_name, num_devices=case.num_gpus),
                "batch_size": batch_size,
                "precision": precision.value,
                "model": model,
                "parallelism": ParallelismConfig(
                    data_parallel=case.data_parallel,
                    tensor_parallel=case.tensor_parallel,
                    pipeline_parallel=case.pipeline_parallel,
                    sequence_parallel=True,
                    micro_batch_size=4 if large_memory_variant else 1,
                    pipeline_schedule="interleaved",
                    virtual_pipeline_stages=virtual_pipeline_stages,
                ),
                "global_batch_size": batch_size,
                "seq_len": case.seq_len,
                "recompute": "selective",
            }
        )
    return Study(
        name="fig5_gpu_generation_scaling",
        kind="training",
        axes={"case": cases},
        columns=("system", "batch_size", "precision"),
        extract="training_step",
        derive=("per_sequence_normalizations",),
        artifact="Fig. 5",
    )


# ---------------------------------------------------------------------------
# Fig. 6 / Fig. 7: technology-node scaling (also the first DSE case study)
# ---------------------------------------------------------------------------

#: The six Fig.-6 legend curves: HBM generations on NDR, then faster networks.
FIG6_COMBINATIONS = (
    {"dram": "HBM2", "network": "NDR-x8"},
    {"dram": "HBM2E", "network": "NDR-x8"},
    {"dram": "HBM3", "network": "NDR-x8"},
    {"dram": "HBM4", "network": "NDR-x8"},
    {"dram": "HBM4", "network": "XDR-x8"},
    {"dram": "HBM4", "network": "GDR-x8"},
)


@register_study(
    name="fig6_technology_node_scaling",
    artifact="Fig. 6",
    description="GPT-7B training time across logic nodes x HBM x networks",
)
def technology_node_scaling(
    model: "TransformerConfig | str" = "GPT-7B",
    parallelism: Optional[ParallelismConfig] = None,
    global_batch_size: int = 512,
    num_devices: int = 1024,
    nodes: Sequence[str] = tuple(NODE_ORDER),
    combinations: Optional[Sequence[Dict[str, str]]] = None,
    precision: Precision = Precision.FP16,
    recompute: RecomputeStrategy = RecomputeStrategy.SELECTIVE,
    budget: Optional[ResourceBudget] = None,
) -> Study:
    """The Fig.-6 technology sweep over derived (node, DRAM, network) devices."""
    from ..dse.space import DesignPoint  # local: dse imports studies

    model = get_model(model) if isinstance(model, str) else model
    if parallelism is None:
        parallelism = ParallelismConfig(
            data_parallel=64,
            tensor_parallel=4,
            pipeline_parallel=4,
            sequence_parallel=True,
            micro_batch_size=1,
        )
    combinations = list(combinations) if combinations is not None else [dict(c) for c in FIG6_COMBINATIONS]
    budget = budget or ResourceBudget()
    cases = []
    for node in nodes:
        for combo in combinations:
            point = DesignPoint(
                technology_node=node,
                dram_technology=combo["dram"],
                inter_node_network=combo["network"],
            )
            cases.append(
                {
                    "technology_node": node,
                    "dram_technology": combo["dram"],
                    "inter_node_network": combo["network"],
                    "system": point.build_system(num_devices=num_devices, budget=budget),
                }
            )
    return Study(
        name="fig6_technology_node_scaling",
        kind="training",
        axes={"case": cases},
        fixed={
            "model": model,
            "parallelism": parallelism,
            "global_batch_size": global_batch_size,
            "precision": precision,
            "recompute": recompute,
        },
        columns=("technology_node", "dram_technology", "inter_node_network"),
        extract="training_times",
        derive=(
            "gemm_bound_times",
            ("series_label", {"parts": ("dram_technology", "inter_node_network")}),
        ),
        artifact="Fig. 6",
    )


@register_study(artifact="Fig. 7", description="Compute- vs memory-bound GEMM time per layer across nodes")
def fig7_bound_breakdown(**kwargs) -> Study:
    """The Fig.-7 view: the Fig.-6 study projected onto bound fractions."""
    study = technology_node_scaling(**kwargs)
    return Study(
        name="fig7_bound_breakdown",
        kind=study.kind,
        axes=study.axes,
        fixed=study.fixed,
        columns=study.columns,
        extract=study.extract,
        derive=tuple(study.derive) + ("bound_fraction_projection",),
        artifact="Fig. 7",
    )


# ---------------------------------------------------------------------------
# Fig. 8: compute vs memory boundedness of the prefill phase
# ---------------------------------------------------------------------------

@register_study(artifact="Fig. 8", description="Prefill GEMM-time bound fractions plus the memory inset")
def fig8_inference_boundedness(
    model_name: str = "Llama2-13B",
    gpus: Sequence[str] = ("A100", "H100"),
    batch_sizes: Sequence[int] = (1, 16),
    prompt_tokens: int = 200,
    context_tokens: int = 400,
) -> Study:
    """The Fig.-8 boundedness sweep (GPU x batch); fully name-based."""
    return Study(
        name="fig8_inference_boundedness",
        kind="prefill_bottlenecks",
        axes={"gpu": list(gpus), "batch_size": list(batch_sizes)},
        fixed={
            "model": model_name,
            "prompt_tokens": prompt_tokens,
            "tensor_parallel": 1,
            "precision": "fp16",
        },
        rename={"gpu": "accelerator"},
        extract="gemm_bound_totals",
        derive=("inference_memory_inset", {"context_tokens": context_tokens}),
        artifact="Fig. 8",
    )


# ---------------------------------------------------------------------------
# Fig. 9: DRAM technology scaling for inference (the second DSE case study)
# ---------------------------------------------------------------------------

@register_study(
    name="fig9_memory_technology_scaling",
    artifact="Fig. 9",
    description="Llama2-13B inference latency vs DRAM technology, 2 and 8 GPUs",
)
def inference_memory_scaling(
    model: "TransformerConfig | str" = "Llama2-13B",
    gpu_counts: Sequence[int] = (2, 8),
    memory_technologies: Sequence[str] = ("GDDR6", "HBM2", "HBM2E", "HBM3", "HBM3E", "HBMX"),
    extra_points: Optional[Sequence[Dict[str, str]]] = None,
    batch_size: int = 1,
    prompt_tokens: int = 200,
    generated_tokens: int = 200,
    precision: Precision = Precision.FP16,
    base_accelerator: str = "A100",
    decode_mode: str = "average",
) -> Study:
    """The Fig.-9 DRAM sweep: the base compute die with swapped memory.

    Intra-node networking is NVLink-Gen3 except for the extra
    HBMX-NVLink-Gen4 point; ``decode_mode="exact"`` prices the decode phase
    per token through the batched roofline backend.
    """
    model = get_model(model) if isinstance(model, str) else model
    if extra_points is None:
        extra_points = [{"dram": "HBMX", "network": "NVLink4"}]
    base = get_accelerator(base_accelerator)
    sweep = [{"dram": tech, "network": "NVLink3"} for tech in memory_technologies]
    sweep.extend(extra_points)
    cases = []
    for combo in sweep:
        technology = get_dram_technology(combo["dram"]).with_capacity(base.dram_capacity)
        accelerator = base.with_dram(technology, keep_capacity=True)
        cases.append(
            {
                "dram_technology": combo["dram"],
                "network": combo["network"],
                "accelerator": accelerator,
            }
        )

    def prepare(flat: Dict[str, object]) -> Dict[str, object]:
        num_gpus = flat["num_gpus"]
        accelerator = flat["accelerator"]
        flat["system"] = build_system(
            accelerator,
            num_devices=num_gpus,
            intra_node=flat["network"],
            inter_node="HDR-IB",
            devices_per_node=8,
            name=f"{base.name}-{flat['dram_technology']}-{flat['network']}",
        )
        flat["tensor_parallel"] = num_gpus
        return flat

    return Study(
        name="fig9_memory_technology_scaling",
        kind="inference",
        axes={"num_gpus": list(gpu_counts), "case": cases},
        fixed={
            "model": model,
            "batch_size": batch_size,
            "prompt_tokens": prompt_tokens,
            "generated_tokens": generated_tokens,
            "precision": precision,
            "decode_mode": decode_mode,
        },
        columns=("dram_technology", "network", "num_gpus"),
        prepare=prepare,
        extract="inference_times",
        derive=(
            ("sum_columns", {"parts": ("memory_time", "communication_time"), "column": "total_latency"}),
            ("series_label", {"parts": ("dram_technology", "network")}),
        ),
        artifact="Fig. 9",
    )


def h100_reference_latency(
    model: "TransformerConfig | str" = "Llama2-13B",
    num_gpus: int = 2,
    batch_size: int = 1,
    prompt_tokens: int = 200,
    generated_tokens: int = 200,
    precision: Precision = Precision.FP16,
    runner: Optional[SweepRunner] = None,
) -> float:
    """The H100-HBM3e reference latency drawn as a dashed line in Fig. 9.

    Deliberately not a registered study: the Fig.-9 table is the DRAM sweep
    alone, and the reference lines are drawn over it.
    """
    runner = runner or default_runner()
    system = build_system(
        "H100",
        num_devices=num_gpus,
        intra_node="NVLink4",
        inter_node="NDR-IB",
        devices_per_node=8,
        name=f"H100x{num_gpus}",
    )
    report = runner.evaluate(
        Scenario.inference(
            system,
            model,
            batch_size=batch_size,
            prompt_tokens=prompt_tokens,
            generated_tokens=generated_tokens,
            tensor_parallel=num_gpus,
            precision=precision,
        )
    )
    return report.total_latency


# ---------------------------------------------------------------------------
# Beyond the paper: the request-level serving frontier
# ---------------------------------------------------------------------------

@register_study(
    artifact="serving frontier",
    description="Latency-throughput frontier of the request-level serving simulator",
)
def serving_latency_throughput_frontier(
    model_name: str = "Llama2-13B",
    gpu: str = "A100",
    num_devices: int = 8,
    arrival_rates: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    tensor_parallels: Sequence[int] = (1,),
    arrival: str = "poisson",
    num_requests: int = 48,
    prompt_lengths: Optional[LengthDistribution] = None,
    output_lengths: Optional[LengthDistribution] = None,
    seed: int = 2024,
    max_batch_size: int = 32,
    slo: Optional[ServingSLO] = None,
    precision: "Precision | str" = Precision.FP16,
) -> Study:
    """The serving-frontier sweep over (TP degree, arrival rate) grid points.

    Infeasible corners (e.g. the model does not fit one device) land in the
    ``error`` column instead of aborting the sweep.
    """
    system = build_system(
        gpu,
        num_devices=num_devices,
        intra_node="NVLink3" if gpu.upper().startswith("A100") else "NVLink4",
        inter_node="HDR-IB",
    )
    slo = slo or ServingSLO()
    prompt_lengths = prompt_lengths or LengthDistribution.uniform(64, 512)
    output_lengths = output_lengths or LengthDistribution.constant(128)

    def prepare(flat: Dict[str, object]) -> Dict[str, object]:
        flat["serving"] = ServingConfig(
            trace=TraceConfig(
                rate=flat["arrival_rate"],
                num_requests=num_requests,
                arrival=arrival,
                prompt_lengths=prompt_lengths,
                output_lengths=output_lengths,
                seed=seed,
            ),
            scheduler=SchedulerConfig(max_batch_size=max_batch_size),
            slo=slo,
        )
        return flat

    return Study(
        name="serving_latency_throughput_frontier",
        kind="serving",
        axes={"tensor_parallel": list(tensor_parallels), "arrival_rate": list(arrival_rates)},
        fixed={"system": system, "model": model_name, "precision": precision, "gpu": gpu},
        columns=("gpu", "tensor_parallel", "arrival_rate"),
        prepare=prepare,
        extract="serving_frontier",
        capture_errors=True,
        artifact="serving frontier",
    )


# ---------------------------------------------------------------------------
# Beyond the paper: the fleet-scale (replicas x router) frontier
# ---------------------------------------------------------------------------

@register_study(
    artifact="fleet frontier",
    description="Fleet-scale goodput/cost frontier over replica count and routing policy",
)
def fleet_load_frontier(
    model_name: str = "Llama2-13B",
    gpu: str = "A100",
    num_devices: int = 8,
    replica_counts: Sequence[int] = (1, 2, 4),
    routers: Sequence[str] = ("round_robin", "least_kv_load", "least_queue", "prefix_affinity"),
    rate_per_tenant: float = 4.0,
    requests_per_tenant: int = 96,
    max_batch_size: int = 32,
    slo: Optional[ServingSLO] = None,
    precision: "Precision | str" = Precision.FP16,
) -> Study:
    """The fleet frontier over (replica count, routing policy) grid points.

    The workload is a two-tenant diurnal trace -- a chatbot-shaped tenant
    whose load peaks mid-period and a batch-summarization tenant arriving in
    bursts against an inverted profile -- so the routing policies actually
    face imbalance.  Per-replica TP is fixed at 1; infeasible corners land in
    the ``error`` column.
    """
    system = build_system(
        gpu,
        num_devices=num_devices,
        intra_node="NVLink3" if gpu.upper().startswith("A100") else "NVLink4",
        inter_node="HDR-IB",
    )
    slo = slo or ServingSLO()
    trace = FleetTraceConfig(
        tenants=(
            TenantTrace(
                trace=TraceConfig(
                    rate=rate_per_tenant,
                    num_requests=requests_per_tenant,
                    arrival="poisson",
                    prompt_lengths=LengthDistribution.uniform(64, 512),
                    output_lengths=LengthDistribution.constant(128),
                    seed=2024,
                ),
                name="chat",
                diurnal=(0.5, 1.0, 2.0, 0.5),
                period=240.0,
            ),
            TenantTrace(
                trace=TraceConfig(
                    rate=rate_per_tenant / 2.0,
                    num_requests=requests_per_tenant // 2,
                    arrival="bursty",
                    prompt_lengths=LengthDistribution.lognormal(256, 0.8, maximum=2048),
                    output_lengths=LengthDistribution.uniform(32, 256),
                    seed=7,
                ),
                name="batch-summarize",
                diurnal=(2.0, 0.5, 0.5, 2.0),
                period=240.0,
            ),
        )
    )

    def prepare(flat: Dict[str, object]) -> Dict[str, object]:
        flat["fleet"] = FleetConfig(
            trace=trace,
            num_replicas=flat["replicas"],
            router=flat["router"],
            scheduler=SchedulerConfig(max_batch_size=max_batch_size),
            slo=slo,
        )
        return flat

    return Study(
        name="fleet_load_frontier",
        kind="fleet",
        axes={"replicas": list(replica_counts), "router": list(routers)},
        fixed={"system": system, "model": model_name, "precision": precision, "gpu": gpu},
        columns=("gpu", "replicas", "router"),
        prepare=prepare,
        extract="fleet_frontier",
        capture_errors=True,
        artifact="fleet frontier",
    )


# ---------------------------------------------------------------------------
# Beyond the paper: fleet resilience under replica failures
# ---------------------------------------------------------------------------

@register_study(
    artifact="fleet resilience",
    description="Availability/goodput degradation under replica faults, by router and retry policy",
)
def fleet_resilience(
    model_name: str = "Llama2-7B",
    gpu: str = "A100",
    num_devices: int = 8,
    num_replicas: int = 4,
    mtbf_values: Sequence[float] = (0.0, 120.0, 30.0),
    routers: Sequence[str] = ("round_robin", "least_queue"),
    retry_attempts: Sequence[int] = (1, 3),
    mttr: float = 10.0,
    fault_seed: int = 2024,
    rate: float = 8.0,
    num_requests: int = 128,
    max_batch_size: int = 32,
    slo: Optional[ServingSLO] = None,
    precision: "Precision | str" = Precision.FP16,
) -> Study:
    """Fleet goodput/availability under fault injection, over three axes.

    ``mtbf_s`` sweeps the per-replica mean time between failures, with the
    sentinel ``0`` meaning *faults disabled* (the baseline row every other
    point is compared against -- a plain fault-free fleet).  ``router``
    varies how lost requests are re-spread, and ``retry_max_attempts``
    prices how much re-prefill work the retry policy is willing to buy
    before declaring a request failed.
    """
    system = build_system(
        gpu,
        num_devices=num_devices,
        intra_node="NVLink3" if gpu.upper().startswith("A100") else "NVLink4",
        inter_node="HDR-IB",
    )
    slo = slo or ServingSLO()
    trace = FleetTraceConfig(
        tenants=(
            TenantTrace(
                trace=TraceConfig(
                    rate=rate,
                    num_requests=num_requests,
                    arrival="poisson",
                    prompt_lengths=LengthDistribution.uniform(64, 512),
                    output_lengths=LengthDistribution.constant(96),
                    seed=2024,
                ),
                name="chat",
            ),
        )
    )

    def prepare(flat: Dict[str, object]) -> Dict[str, object]:
        mtbf = float(flat["mtbf_s"])
        flat["fleet"] = FleetConfig(
            trace=trace,
            num_replicas=num_replicas,
            router=flat["router"],
            scheduler=SchedulerConfig(max_batch_size=max_batch_size),
            slo=slo,
            faults=FaultConfig(mtbf=mtbf, mttr=mttr, seed=fault_seed) if mtbf > 0 else None,
            retry=RetryPolicy(max_attempts=int(flat["retry_max_attempts"])),
        )
        return flat

    return Study(
        name="fleet_resilience",
        kind="fleet",
        axes={
            "mtbf_s": list(mtbf_values),
            "router": list(routers),
            "retry_max_attempts": list(retry_attempts),
        },
        fixed={"system": system, "model": model_name, "precision": precision, "gpu": gpu},
        columns=("gpu", "mtbf_s", "router", "retry_max_attempts"),
        prepare=prepare,
        extract="fleet_resilience",
        capture_errors=True,
        artifact="fleet resilience",
    )
