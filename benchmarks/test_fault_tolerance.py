"""Chaos benchmark: degraded-fleet goodput.

The same Llama2-7B workload is priced on a clean 4-replica fleet and on one
injected with replica crashes (exponential MTBF/MTTR) plus retries.  The
benchmark records availability, goodput retention, and wasted re-prefill
work, and asserts the faulty run stays deterministic and fully accounted
(every request completes, fails, or is rejected).

Headline numbers land in ``BENCH_faults.json`` at the repo root so CI can
archive the resilience trajectory as an artifact (next to
``BENCH_fleet.json`` and friends).
"""

from __future__ import annotations

import os
import pathlib
import time

from conftest import emit, write_bench

from repro.hardware.cluster import build_system
from repro.models.zoo import get_model
from repro.serving import (
    FaultConfig,
    FleetConfig,
    FleetSimulator,
    LengthDistribution,
    RetryPolicy,
    SchedulerConfig,
    TraceConfig,
)

#: Where the chaos benchmark records its headline numbers.
BENCH_FAULTS_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_faults.json"

#: Requests in the degraded-fleet run; override for quick local runs.
NUM_REQUESTS = int(os.environ.get("REPRO_FAULT_REQUESTS", 20_000))
NUM_REPLICAS = 4

#: Acceptance floors: faults must hurt but not collapse the fleet.
AVAILABILITY_FLOOR = 0.5
GOODPUT_RETENTION_FLOOR = 0.2


def _fleet_config(faults: "FaultConfig | None") -> FleetConfig:
    return FleetConfig(
        trace=TraceConfig(
            rate=60.0,
            num_requests=NUM_REQUESTS,
            prompt_lengths=LengthDistribution.uniform(64, 256),
            output_lengths=LengthDistribution.constant(32),
            seed=2024,
        ),
        num_replicas=NUM_REPLICAS,
        router="least_queue",
        scheduler=SchedulerConfig(max_batch_size=64, max_prefill_requests=16),
        faults=faults,
        retry=RetryPolicy(max_attempts=3, backoff=0.5),
    )


def test_degraded_fleet_goodput(benchmark):
    system = build_system("A100", num_devices=1)
    model = get_model("Llama2-7B")
    faults = FaultConfig(mtbf=45.0, mttr=10.0, seed=7)

    clean = FleetSimulator(system=system, model=model, fleet=_fleet_config(None)).run()

    simulator = FleetSimulator(system=system, model=model, fleet=_fleet_config(faults))
    start = time.perf_counter()
    report = benchmark.pedantic(simulator.run, rounds=1, iterations=1)
    wall_seconds = time.perf_counter() - start

    # Determinism: a second run of the same config is bit-identical.
    again = FleetSimulator(system=system, model=model, fleet=_fleet_config(faults)).run()
    assert again.to_dict() == report.to_dict()

    # Full accounting under faults: no request silently vanishes.
    assert (
        report.completed_requests + report.failed_requests + report.rejected_requests
        == NUM_REQUESTS
    )
    assert report.replica_failures > 0
    assert report.availability < 1.0

    goodput_retention = report.goodput / clean.goodput if clean.goodput else 0.0
    payload = {
        "benchmark": "fault_tolerance",
        "model": model.name,
        "system": system.name,
        "num_requests": NUM_REQUESTS,
        "num_replicas": NUM_REPLICAS,
        "mtbf_s": faults.mtbf,
        "mttr_s": faults.mttr,
        "wall_seconds": wall_seconds,
        "availability": report.availability,
        "replica_failures": report.replica_failures,
        "retried_requests": report.retried_requests,
        "failed_requests": report.failed_requests,
        "wasted_prefill_tokens": report.wasted_prefill_tokens,
        "lost_output_tokens": report.lost_output_tokens,
        "clean_goodput_rps": clean.goodput,
        "faulty_goodput_rps": report.goodput,
        "goodput_retention": goodput_retention,
        "clean_ttft_p99_s": clean.ttft_p99,
        "faulty_ttft_p99_s": report.ttft_p99,
    }
    write_bench(BENCH_FAULTS_PATH, payload)
    benchmark.extra_info.update(payload)
    emit(
        f"degraded fleet: {report.replica_failures} crashes over "
        f"{NUM_REQUESTS:,} requests, availability {report.availability:.3f}, "
        f"{report.retried_requests:,} retried / {report.failed_requests:,} failed, "
        f"goodput retention {goodput_retention:.2f} "
        f"({report.wasted_prefill_tokens:,} prefill tokens re-done) in {wall_seconds:.1f}s"
    )
    assert report.availability >= AVAILABILITY_FLOOR
    assert goodput_retention >= GOODPUT_RETENTION_FLOOR

