"""Mega-sweep benchmark: the cold path at zoo x catalog x parallelism scale.

A ~10k-scenario decode-bottleneck grid (every zoo model x four catalog
accelerators x tensor-parallel degrees x batch sizes x KV lengths) exercises
the whole cold pipeline the way the million-scenario target will:

* **key-hash** -- vectorized :func:`repro.sweep.cache_keys` vs the scalar
  per-scenario ``cache_key`` loop on fresh grids (identical keys, >= 3x,
  comparing the medians of :data:`KEYHASH_REPEATS` alternating cold runs
  per side);
* **cold** -- batched planning (``batch_planning=True``);
* **warm** -- the cold runner again, everything served from the LRU.

The headline numbers land in ``BENCH_megasweep.json`` at the repo root.  The
grid scales via ``REPRO_MEGASWEEP_SCENARIOS`` (default 10000; CI pins the
same value, the README's 100k row comes from
``REPRO_MEGASWEEP_SCENARIOS=100000``).
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time

from conftest import alternating_medians, emit

from repro.sweep import Scenario, SweepRunner, cache_keys, clear_engine_cache
from repro.sweep.batchplan import clear_plan_caches

#: Where the benchmark records its headline numbers.
BENCH_MEGASWEEP_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_megasweep.json"

#: Grid scale knob (total scenario count, rounded up to a full KV row).
SCENARIOS_ENV = "REPRO_MEGASWEEP_SCENARIOS"
DEFAULT_SCENARIOS = 10_000

#: Cold key-hash runs per side of the speedup ratio (single runs read 2.86x
#: to 4.83x on a 2-CPU host).
KEYHASH_REPEATS = 5

_MODELS = (
    "GPT-7B", "GPT-22B", "GPT-175B", "GPT-310B", "GPT-530B", "GPT-1008B",
    "Llama2-7B", "Llama2-13B", "Llama2-70B",
)
_ACCELERATORS = ("A100", "H100", "B200", "TPUV4")
_TENSOR_PARALLEL = (1, 2, 4, 8)
_BATCH_SIZES = (1, 4)
_KV_BASE = 64


def _target_scenarios() -> int:
    return int(os.environ.get(SCENARIOS_ENV, DEFAULT_SCENARIOS))


def _scenarios():
    """A fresh zoo x catalog x parallelism grid (fresh objects: no pinned keys)."""
    combos = [
        (model, accelerator, tensor_parallel, batch_size)
        for model in _MODELS
        for accelerator in _ACCELERATORS
        for tensor_parallel in _TENSOR_PARALLEL
        for batch_size in _BATCH_SIZES
    ]
    kv_count = max(1, math.ceil(_target_scenarios() / len(combos)))
    return [
        Scenario.decode_bottlenecks(
            accelerator, model, batch_size=batch_size, kv_len=_KV_BASE + kv_index,
            tensor_parallel=tensor_parallel,
        )
        for model, accelerator, tensor_parallel, batch_size in combos
        for kv_index in range(kv_count)
    ]


def _go_cold():
    """Drop every process-level cache the sweep layer warms."""
    clear_engine_cache()
    clear_plan_caches()


def _timed_run(runner, scenarios):
    start = time.perf_counter()
    results = runner.run(scenarios)
    return results, time.perf_counter() - start


def _cold_keyhash(hash_grid):
    """Key one fresh grid with every process-level cache dropped: ``(seconds, keys)``."""
    _go_cold()
    grid = _scenarios()
    start = time.perf_counter()
    keys = hash_grid(grid)
    return time.perf_counter() - start, keys


def test_megasweep_scales_cold_and_warm(benchmark):
    num_scenarios = len(_scenarios())
    num_cpus = os.cpu_count() or 1

    # -- key-hash throughput: scalar loop vs vectorized identity ------------
    (scalar_keyhash_seconds, scalar_keys), (vector_keyhash_seconds, vector_keys) = alternating_medians(
        KEYHASH_REPEATS,
        lambda: _cold_keyhash(lambda grid: [scenario.cache_key() for scenario in grid]),
        lambda: _cold_keyhash(cache_keys),
    )
    assert vector_keys == scalar_keys
    keyhash_speedup = scalar_keyhash_seconds / vector_keyhash_seconds
    assert keyhash_speedup >= 3.0

    # -- cold: batched planning ----------------------------------------------
    def _run_cold():
        _go_cold()
        runner = SweepRunner(batch_planning=True, capture_errors=True, cache_size=2 * num_scenarios)
        _, seconds = _timed_run(runner, _scenarios())
        # The stage seconds of the cold run alone: the warm re-run below adds
        # its own key hashing to the same runner's stats.
        return runner, seconds, runner.stats.snapshot()

    cold_runner, cold_seconds, cold_stats = benchmark.pedantic(_run_cold, rounds=1, iterations=1)
    assert cold_runner.stats.evaluations == num_scenarios
    assert cold_runner.stats.batched_scenarios == num_scenarios

    # -- warm: everything from the LRU --------------------------------------
    warm_results, warm_seconds = _timed_run(cold_runner, _scenarios())
    assert cold_runner.stats.evaluations == num_scenarios  # nothing re-priced
    assert len(warm_results) == num_scenarios

    record = {
        "benchmark": "megasweep_zoo_catalog_parallelism",
        "num_scenarios": num_scenarios,
        "num_cpus": num_cpus,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_scenarios_per_s": num_scenarios / cold_seconds,
        "warm_scenarios_per_s": num_scenarios / warm_seconds,
        "keyhash_repeats": KEYHASH_REPEATS,
        "scalar_keyhash_keys_per_s": num_scenarios / scalar_keyhash_seconds,
        "vectorized_keyhash_keys_per_s": num_scenarios / vector_keyhash_seconds,
        "keyhash_speedup": keyhash_speedup,
        "plan_seconds": cold_stats["plan_seconds"],
        "price_seconds": cold_stats["price_seconds"],
        "scatter_seconds": cold_stats["scatter_seconds"],
        "keyhash_seconds": cold_stats["keyhash_seconds"],
    }
    benchmark.extra_info.update(record)
    BENCH_MEGASWEEP_PATH.write_text(json.dumps(record, indent=2) + "\n")

    emit(
        f"megasweep: {num_scenarios} decode-bottleneck scenarios "
        f"({len(_MODELS)} models x {len(_ACCELERATORS)} accelerators x "
        f"tp {_TENSOR_PARALLEL} x batch {_BATCH_SIZES}; {num_cpus} CPUs)\n"
        f"  cold, batched planner   : {cold_seconds:8.2f} s "
        f"({record['cold_scenarios_per_s']:8.0f} scenarios/s)\n"
        f"  warm, LRU-served        : {warm_seconds:8.2f} s "
        f"({record['warm_scenarios_per_s']:8.0f} scenarios/s)\n"
        f"  key-hash, scalar        : {record['scalar_keyhash_keys_per_s']:8.0f} keys/s\n"
        f"  key-hash, vectorized    : {record['vectorized_keyhash_keys_per_s']:8.0f} keys/s "
        f"({keyhash_speedup:.1f}x; medians of {KEYHASH_REPEATS} alternating cold runs)"
    )
