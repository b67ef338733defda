"""Benchmark: study service latency -- submit-to-first-result and warm resubmission.

The service exists to keep the warm state (step-cost tables, interned
fabric/collective models, the runner LRU) resident across requests, so the
pin is the ratio that state buys: a resubmission of the same spec must
complete at least 5x faster than the cold first run, because it prices zero
scenarios.  Also recorded: submit-to-first-streamed-row latency on both the
cold and warm paths (the row events carry service-clock timestamps).
Results land in ``BENCH_service.json`` for the CI artifact.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time

from benchmarks.conftest import emit, write_bench
from repro.service import InMemoryJobStore, ServiceApi, ServiceRegistry, StudyService
from repro.sweep import SweepRunner, clear_engine_cache

BENCH_SERVICE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: The submitted spec: a 48-scenario inference grid on one A100 node.
SPEC = {
    "name": "service-bench-grid",
    "kind": "inference",
    "axes": {
        "batch_size": [1, 2, 4, 8],
        "prompt_tokens": [64, 128, 256],
        "generated_tokens": [16, 32, 64, 128],
    },
    "fixed": {"system": "A100", "model": "Llama2-7B", "tensor_parallel": 8},
}


def _submit_and_run(api, service):
    """Submit SPEC, drain it synchronously, and return (job_id, elapsed, first_row_s)."""
    gc.collect()
    started = time.perf_counter()
    submitted_at = time.time()
    response = api.dispatch("POST", "/studies", body=json.dumps(SPEC).encode())
    assert response.status == 202
    job_id = response.json_body()["job"]["id"]
    service.run_next()
    elapsed = time.perf_counter() - started
    job = service.job(job_id)
    first_row_s = job.rows[0]["t"] - submitted_at
    return job_id, elapsed, first_row_s


def test_warm_resubmission_at_least_5x_faster_than_cold(benchmark):
    clear_engine_cache()  # honest cold start: no process-global warm state
    runner = SweepRunner()
    registry = ServiceRegistry(runner=runner, jobs=InMemoryJobStore(), workers=0)
    service = StudyService(registry, start_workers=False)
    api = ServiceApi(service)
    total = 4 * 3 * 4

    cold_id, cold_seconds, cold_first_row = _submit_and_run(api, service)
    cold_job = service.job(cold_id)
    assert cold_job.state.value == "done"
    assert len(cold_job.rows) == total
    assert runner.stats.evaluations == total

    warm_seconds = warm_first_row = float("inf")
    warm_id = None
    for _ in range(3):  # best-of-N so host load drift cannot fake a miss
        warm_id, elapsed, first_row = _submit_and_run(api, service)
        warm_seconds = min(warm_seconds, elapsed)
        warm_first_row = min(warm_first_row, first_row)
    warm_job = service.job(warm_id)
    assert warm_job.cached_rows == total  # priced nothing
    assert runner.stats.evaluations == total

    benchmark.pedantic(lambda: _submit_and_run(api, service), rounds=1, iterations=1)

    speedup = cold_seconds / warm_seconds
    record = {
        "benchmark": "service_warm_resubmission",
        "scenarios": total,
        "cold_submit_to_done_seconds": cold_seconds,
        "warm_submit_to_done_seconds": warm_seconds,
        "cold_submit_to_first_row_seconds": cold_first_row,
        "warm_submit_to_first_row_seconds": warm_first_row,
        "warm_speedup_x": speedup,
    }
    benchmark.extra_info.update(record)
    write_bench(BENCH_SERVICE_PATH, record)

    emit(
        f"study service: {total}-scenario grid through POST /studies\n"
        f"  cold submit -> done            : {cold_seconds * 1e3:8.1f} ms\n"
        f"  warm submit -> done            : {warm_seconds * 1e3:8.1f} ms\n"
        f"  cold submit -> first row       : {cold_first_row * 1e3:8.1f} ms\n"
        f"  warm submit -> first row       : {warm_first_row * 1e3:8.1f} ms\n"
        f"  warm speedup                   : {speedup:8.1f} x"
        f"  -> {BENCH_SERVICE_PATH.name}"
    )

    assert speedup >= 5.0, f"warm resubmission only {speedup:.1f}x faster than cold"
