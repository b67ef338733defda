"""Macro-benchmark of the fleet simulator at million-request scale.

Simulates an 8-replica Llama2-7B fleet on A100s serving one million
requests from an 8-tenant diurnal trace, and records how fast the
cluster-level event-horizon loop runs: simulated requests, fused engine
steps, and generated tokens per wall-clock second.  Trace generation is
timed separately to show the vectorized NumPy path producing the
million-request workload in well under a second.

The headline numbers are written to ``BENCH_fleet.json`` at the repo root
so CI can archive the fleet-throughput trajectory as an artifact (next to
``BENCH_serving.json`` and ``BENCH_batched.json``).  The in-test floors
back the PR's acceptance criterion: >= 1M simulated requests across >= 8
replicas priced in < 60 s wall-clock in a single process.
"""

from __future__ import annotations

import os
import pathlib
import time

from conftest import emit, write_bench

from repro.hardware.cluster import build_system
from repro.models.zoo import get_model
from repro.serving import (
    FleetConfig,
    FleetSimulator,
    FleetTraceConfig,
    LengthDistribution,
    SchedulerConfig,
    TenantTrace,
    TraceConfig,
)

#: Where the fleet benchmark records its headline numbers.
BENCH_FLEET_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

#: Acceptance floors (the local run clears them ~5x; CI machines are slower).
WALL_SECONDS_CEILING = 60.0
REQUESTS_PER_SECOND_FLOOR = 8000.0

#: Total simulated requests across the fleet; override for quick local runs
#: with REPRO_FLEET_REQUESTS (CI uses the full million).
NUM_TENANTS = 8
TOTAL_REQUESTS = int(os.environ.get("REPRO_FLEET_REQUESTS", 1_000_000))
NUM_REPLICAS = 8


def _fleet_config() -> FleetConfig:
    per_tenant = TOTAL_REQUESTS // NUM_TENANTS
    tenants = tuple(
        TenantTrace(
            trace=TraceConfig(
                rate=400.0,
                num_requests=per_tenant,
                prompt_lengths=LengthDistribution.constant(128),
                output_lengths=LengthDistribution.constant(32),
                seed=100 + index,
            ),
            name=f"tenant-{index}",
            diurnal=(0.5, 1.5, 1.5, 0.5),
            period=600.0,
        )
        for index in range(NUM_TENANTS)
    )
    return FleetConfig(
        trace=FleetTraceConfig(tenants=tenants),
        num_replicas=NUM_REPLICAS,
        router="round_robin",
        scheduler=SchedulerConfig(max_batch_size=128, max_prefill_requests=32),
    )


def test_fleet_simulator_million_request_throughput(benchmark):
    system = build_system("A100", num_devices=1)
    model = get_model("Llama2-7B")
    fleet = _fleet_config()

    start = time.perf_counter()
    columns = fleet.trace.generate_columns()
    trace_gen_seconds = time.perf_counter() - start
    assert len(columns) == TOTAL_REQUESTS

    simulator = FleetSimulator(system=system, model=model, fleet=fleet)
    start = time.perf_counter()
    report = benchmark.pedantic(simulator.run, args=(columns,), rounds=1, iterations=1)
    wall_seconds = time.perf_counter() - start

    assert report.completed_requests == TOTAL_REQUESTS
    assert report.rejected_requests == 0
    steps = report.prefill_steps + report.decode_steps
    output_tokens = report.output_token_throughput * report.simulated_time

    payload = {
        "benchmark": "fleet_simulator",
        "model": model.name,
        "system": system.name,
        "num_requests": report.completed_requests,
        "num_replicas": report.num_replicas,
        "router": report.router,
        "engine_steps": steps,
        "simulated_seconds": report.simulated_time,
        "wall_seconds": wall_seconds,
        "trace_gen_seconds": trace_gen_seconds,
        "simulated_requests_per_second": report.completed_requests / wall_seconds,
        "fleet_steps_per_second": steps / wall_seconds,
        "simulated_tokens_per_second": output_tokens / wall_seconds,
        "device_utilization": report.device_utilization,
        "load_imbalance": report.load_imbalance,
        "cost_per_million_tokens_usd": report.cost_per_million_tokens,
    }
    write_bench(BENCH_FLEET_PATH, payload)
    benchmark.extra_info.update(payload)
    emit(
        f"fleet simulator: {report.completed_requests:,} requests on "
        f"{report.num_replicas} replicas ({report.router}) in {wall_seconds:.1f}s = "
        f"{payload['simulated_requests_per_second']:,.0f} requests/s, "
        f"{payload['fleet_steps_per_second']:,.0f} fused steps/s "
        f"(trace generated in {trace_gen_seconds:.2f}s)"
    )
    # Acceptance criterion: a million requests across >= 8 replicas priced in
    # under a minute, single process.
    if TOTAL_REQUESTS >= 1_000_000:
        assert report.completed_requests >= 1_000_000
        assert wall_seconds < WALL_SECONDS_CEILING
        assert payload["simulated_requests_per_second"] >= REQUESTS_PER_SECOND_FLOOR
    assert report.num_replicas >= 8
    # The vectorized trace path must stay a rounding error next to the sim.
    assert trace_gen_seconds < 5.0
