"""Cold-sweep benchmark: cross-scenario batched pricing vs the scalar loop.

A 256-scenario decode-bottleneck grid (one system, one model, ``batch_size x
kv_len`` axes) is priced three ways:

* **cold** -- ``batch_planning=False``: the one-at-a-time reference loop,
  every kernel through the scalar roofline path;
* **batched-cold** -- ``batch_planning=True`` (the default): the planner
  collects every GEMM across the generation and prices them in one
  vectorized call;
* **warm** -- the same runner again, everything served from the LRU.

The batched pass must be bit-identical to the cold pass and at least 3x
faster, comparing the medians of :data:`REPEATS` alternating cold runs per
side; the headline scenarios/s numbers land in ``BENCH_coldsweep.json`` at
the repo root so CI can archive the perf trajectory as an artifact.
"""

from __future__ import annotations

import json
import pathlib
import time

from conftest import alternating_medians, emit

from repro.sweep import Scenario, SweepRunner, clear_engine_cache, expand_grid
from repro.sweep.batchplan import clear_plan_caches

#: Where the benchmark records its headline numbers.
BENCH_COLDSWEEP_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_coldsweep.json"

_SYSTEM = "A100"
_MODEL = "Llama2-13B"
_BATCH_SIZES = (1, 2)
_KV_LENS = tuple(range(64, 192))  # 2 x 128 = 256 unique scenarios

#: Cold runs per side of the speedup ratio (single runs read 2.74x to 6.84x
#: on a 2-CPU host).
REPEATS = 7


def _scenarios():
    """A fresh 256-scenario grid (fresh objects: no memoized cache keys)."""
    return [
        Scenario.decode_bottlenecks(
            _SYSTEM, _MODEL, batch_size=combo["batch_size"], kv_len=combo["kv_len"]
        )
        for combo in expand_grid(batch_size=list(_BATCH_SIZES), kv_len=list(_KV_LENS))
    ]


def _go_cold():
    """Drop every process-level cache the sweep layer warms."""
    clear_engine_cache()
    clear_plan_caches()


def _timed_run(runner, scenarios):
    start = time.perf_counter()
    results = runner.run(scenarios)
    return results, time.perf_counter() - start


def _cold_run(batch_planning):
    """One genuinely cold run: fresh runner, every process-level cache dropped."""
    _go_cold()
    runner = SweepRunner(batch_planning=batch_planning)
    results, seconds = _timed_run(runner, _scenarios())
    return seconds, (results, runner)


def test_batched_cold_sweep_beats_scalar_and_stays_bit_identical(benchmark):
    num_scenarios = len(_scenarios())
    assert num_scenarios >= 256

    (cold_seconds, cold), (batched_seconds, batched) = benchmark.pedantic(
        alternating_medians,
        args=(REPEATS, lambda: _cold_run(False), lambda: _cold_run(True)),
        rounds=1,
        iterations=1,
    )
    cold_results, cold_runner = cold
    batched_results, batched_runner = batched
    assert cold_runner.stats.evaluations == num_scenarios
    assert batched_runner.stats.evaluations == num_scenarios
    assert batched_runner.stats.batched_scenarios == num_scenarios

    warm_results, warm_seconds = _timed_run(batched_runner, _scenarios())
    assert batched_runner.stats.evaluations == num_scenarios  # nothing re-priced
    assert batched_runner.stats.cache_hits == num_scenarios

    speedup = cold_seconds / batched_seconds
    record = {
        "benchmark": "cold_sweep_cross_scenario_batching",
        "system": _SYSTEM,
        "model": _MODEL,
        "num_scenarios": num_scenarios,
        "repeats": REPEATS,
        "cold_seconds": cold_seconds,
        "batched_cold_seconds": batched_seconds,
        "warm_seconds": warm_seconds,
        "cold_scenarios_per_s": num_scenarios / cold_seconds,
        "batched_cold_scenarios_per_s": num_scenarios / batched_seconds,
        "warm_scenarios_per_s": num_scenarios / warm_seconds,
        "speedup": speedup,
    }
    benchmark.extra_info.update(record)
    BENCH_COLDSWEEP_PATH.write_text(json.dumps(record, indent=2) + "\n")

    emit(
        f"cold sweep: {num_scenarios} decode-bottleneck scenarios ({_MODEL} on {_SYSTEM}), "
        f"medians of {REPEATS} alternating cold runs\n"
        f"  cold, per-scenario loop : {cold_seconds * 1e3:8.1f} ms "
        f"({record['cold_scenarios_per_s']:8.0f} scenarios/s)\n"
        f"  cold, batched planner   : {batched_seconds * 1e3:8.1f} ms "
        f"({record['batched_cold_scenarios_per_s']:8.0f} scenarios/s)\n"
        f"  warm rerun (LRU)        : {warm_seconds * 1e3:8.1f} ms "
        f"({record['warm_scenarios_per_s']:8.0f} scenarios/s)\n"
        f"  batching speedup        : {speedup:8.2f}x  -> {BENCH_COLDSWEEP_PATH.name}"
    )

    # Bit-identical results: same entries, same floats, scenario by scenario.
    for ours, theirs in zip(batched_results, cold_results):
        assert ours.value == theirs.value
    for ours, theirs in zip(warm_results, batched_results):
        assert ours.value == theirs.value
        assert ours.from_cache
    assert speedup >= 3.0, f"batched cold sweep only {speedup:.2f}x faster than the scalar loop"
