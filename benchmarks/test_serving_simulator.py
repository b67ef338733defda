"""Micro-benchmark of the request-level serving simulator.

Simulates a continuously-batched Llama2-7B deployment on one A100 and
records how fast the discrete-event loop runs: simulated requests, engine
steps, and generated tokens per wall-clock second.  Three regimes are
measured on the same workload:

* **cold**: a fresh simulator, paying all one-time pricing (the protocol of
  the PR 3 baseline, ~5.8k steps/s);
* **steady state**: the same simulator re-run with warm step-cost caches --
  what a frontier sweep sees, since the engine shares one ``StepCostModel``
  across all of a system's serving scenarios;
* **stepwise**: the ``fused=False`` per-step reference loop, measured the
  same way, giving the epoch-fusion speedup.

The headline numbers are written to ``BENCH_serving.json`` at the repo root
so CI can archive the serving-throughput trajectory as an artifact (next to
``BENCH_batched.json``).
"""

from __future__ import annotations

import pathlib
import time

from conftest import emit, write_bench

from repro.hardware.cluster import build_system
from repro.models.zoo import get_model
from repro.serving import LengthDistribution, ServingSimulator, TraceConfig

#: Where the serving benchmark records its headline numbers.
BENCH_SERVING_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: Steps/s of the pre-fusion (PR 3) simulator on this workload; the fused
#: loop must beat it by at least this factor in steady state.
PR3_BASELINE_STEPS_PER_SECOND = 5800.0
FUSION_FLOOR = 5.0

#: Workload: mixed prompts, open-loop Poisson arrivals near saturation.
TRACE = TraceConfig(
    rate=6.0,
    num_requests=96,
    prompt_lengths=LengthDistribution.uniform(64, 384),
    output_lengths=LengthDistribution.constant(48),
    seed=2024,
)


def _best_wall_seconds(simulator: ServingSimulator, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        simulator.run(TRACE)
        best = min(best, time.perf_counter() - start)
    return best


def test_serving_simulator_throughput(benchmark):
    system = build_system("A100", num_devices=1)
    model = get_model("Llama2-7B")
    fused = ServingSimulator(system=system, model=model, tensor_parallel=1)

    start = time.perf_counter()
    report = benchmark.pedantic(fused.run, args=(TRACE,), rounds=1, iterations=1)
    cold_wall_seconds = time.perf_counter() - start

    assert report.completed_requests == TRACE.num_requests
    assert report.rejected_requests == 0
    steps = report.prefill_steps + report.decode_steps
    output_tokens = sum(metrics.output_tokens for metrics in report.per_request)

    # Steady state: the warm-cache regime every scenario after the first of
    # a frontier sweep runs in (one shared StepCostModel per system).
    warm_wall_seconds = _best_wall_seconds(fused)

    # The per-step reference loop, measured identically (its own caches).
    stepwise = ServingSimulator(system=system, model=model, tensor_parallel=1, fused=False)
    stepwise_report = stepwise.run(TRACE)  # cold warm-up run
    assert stepwise_report.to_dict() == report.to_dict()  # fusion is exact
    stepwise_wall_seconds = _best_wall_seconds(stepwise)

    steps_per_second = steps / warm_wall_seconds
    payload = {
        "benchmark": "serving_simulator",
        "model": model.name,
        "system": system.name,
        "num_requests": report.completed_requests,
        "engine_steps": steps,
        "simulated_seconds": report.simulated_time,
        "wall_seconds": warm_wall_seconds,
        "cold_wall_seconds": cold_wall_seconds,
        "stepwise_wall_seconds": stepwise_wall_seconds,
        "simulated_requests_per_second": report.completed_requests / warm_wall_seconds,
        "steps_per_second": steps_per_second,
        "cold_steps_per_second": steps / cold_wall_seconds,
        "stepwise_steps_per_second": steps / stepwise_wall_seconds,
        "fused_speedup": stepwise_wall_seconds / warm_wall_seconds,
        "speedup_vs_pr3_baseline": steps_per_second / PR3_BASELINE_STEPS_PER_SECOND,
        "simulated_tokens_per_second": output_tokens / warm_wall_seconds,
        "speedup_vs_realtime": report.simulated_time / warm_wall_seconds,
    }
    write_bench(BENCH_SERVING_PATH, payload)
    benchmark.extra_info.update(payload)
    emit(
        f"serving simulator: {report.completed_requests} requests / {steps} steps, "
        f"{steps_per_second:.0f} steps/s steady state "
        f"({payload['cold_steps_per_second']:.0f} cold, "
        f"{payload['stepwise_steps_per_second']:.0f} stepwise reference) = "
        f"{payload['speedup_vs_pr3_baseline']:.1f}x the PR 3 baseline, "
        f"{payload['fused_speedup']:.1f}x the per-step loop, "
        f"{payload['speedup_vs_realtime']:.0f}x faster than real time"
    )
    # The simulator must stay far faster than the system it models, or
    # serving sweeps become impractical.
    assert payload["speedup_vs_realtime"] > 5.0
    assert payload["simulated_requests_per_second"] > 10.0
    # Epoch fusion floor: >= 5x the PR 3 per-step baseline on this workload,
    # and a real speedup over the in-tree stepwise reference.
    assert payload["speedup_vs_pr3_baseline"] >= FUSION_FLOOR
    assert payload["fused_speedup"] >= 2.5
