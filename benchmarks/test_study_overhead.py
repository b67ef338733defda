"""Benchmark: Study expansion + dispatch overhead over the raw SweepRunner.

The Study layer is pure orchestration -- axis expansion, factory dispatch,
axis-column attachment -- so running a sweep through a
:class:`~repro.studies.study.Study` must cost essentially the same as
hand-building the scenario list and calling
:meth:`SweepRunner.run_table <repro.sweep.runner.SweepRunner.run_table>`
directly.

Wall-clock evaluation time in CI varies by ~10% run to run, far more than
the ~1% true overhead, so the pin isolates the orchestration delta instead
of differencing two noisy cold sweeps: both paths run against one *warm*
result cache (evaluation cost ~0, identical cache lookups and scenario
construction), so the timing delta is exactly the Study layer's expansion,
factory dispatch, and axis-column attachment.  That delta, relative to the
cold end-to-end sweep time, must stay under 5%.  All three timings are
medians of :data:`REPEATS` alternating repetitions, and every cold
repetition starts from dropped process-level caches and a fresh runner.
Results land in ``BENCH_study.json`` for the CI artifact.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time

from benchmarks.conftest import alternating_medians, emit
from repro.studies import Study
from repro.sweep import Scenario, SweepRunner, clear_engine_cache, expand_grid
from repro.sweep.batchplan import clear_plan_caches

BENCH_STUDY_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_study.json"

#: The shared grid: model x batch x prompt inference predictions on one node.
_AXES = {
    "model": ["Llama2-7B", "Llama2-13B"],
    "batch_size": [1, 2, 4, 8, 16, 32],
    "prompt_tokens": [64, 128, 256, 512],
    "generated_tokens": [16, 32, 64],
}
_FIXED = {"system": "A100", "tensor_parallel": 8}

#: Repetitions of each timing.  Single cold runs taken on warm engine caches
#: put the overhead at 2.40% to 7.13% on a 2-CPU host.
REPEATS = 7


def _study() -> Study:
    return Study(
        name="study-overhead-grid",
        kind="inference",
        axes=_AXES,
        fixed=_FIXED,
        extract=lambda result: {"latency_s": result.value.total_latency},
    )


def _scenarios():
    return [
        Scenario.inference(_FIXED["system"], tensor_parallel=_FIXED["tensor_parallel"], **combo)
        for combo in expand_grid(**_AXES)
    ]


def _timed(fn):
    gc.collect()  # pay accumulated collection debt outside the timed region
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def test_study_dispatch_overhead_under_5_percent(benchmark):
    study = _study()
    rows = sum(1 for _ in study.combos())
    extract = lambda result: {"latency_s": result.value.total_latency}  # noqa: E731

    def cold():
        clear_engine_cache()
        clear_plan_caches()
        fresh = SweepRunner(cache_size=4 * rows)
        return _timed(lambda: fresh.run_table(_scenarios(), extract=extract))

    # Warm cache for the other two: evaluation cost ~0 for both paths, so the
    # timing difference is exactly the Study layer's expansion + dispatch
    # (both paths build their 144 scenarios inside the timed region, as a
    # real caller of either API would).
    runner = SweepRunner(cache_size=4 * rows)
    runner.run_table(_scenarios(), extract=extract)
    (cold_seconds, _), (direct_seconds, direct_table), (study_seconds, study_table) = alternating_medians(
        REPEATS,
        cold,
        lambda: _timed(lambda: runner.run_table(_scenarios(), extract=extract)),
        lambda: _timed(lambda: study.run(runner=runner)),
    )
    benchmark.pedantic(lambda: study.run(runner=runner), rounds=1, iterations=1)

    overhead_pct = (study_seconds - direct_seconds) / cold_seconds * 100.0
    record = {
        "benchmark": "study_vs_direct_run_table",
        "rows": rows,
        "repeats": REPEATS,
        "cold_sweep_seconds": cold_seconds,
        "direct_warm_seconds": direct_seconds,
        "study_warm_seconds": study_seconds,
        "dispatch_delta_seconds": study_seconds - direct_seconds,
        "overhead_pct_of_cold_sweep": overhead_pct,
    }
    benchmark.extra_info.update(record)
    BENCH_STUDY_PATH.write_text(json.dumps(record, indent=2) + "\n")

    emit(
        f"study dispatch overhead: {rows}-scenario inference grid, medians of {REPEATS} alternating runs\n"
        f"  cold sweep (evaluations)       : {cold_seconds * 1e3:8.1f} ms\n"
        f"  direct run_table, warm cache   : {direct_seconds * 1e3:8.1f} ms\n"
        f"  Study.run, warm cache          : {study_seconds * 1e3:8.1f} ms\n"
        f"  expansion+dispatch overhead    : {overhead_pct:8.2f} % of the cold sweep"
        f"  -> {BENCH_STUDY_PATH.name}"
    )

    # Same rows (axis columns + metric), same values, negligible overhead.
    assert len(study_table) == len(direct_table) == rows
    assert study_table["latency_s"].tolist() == direct_table["latency_s"].tolist()
    assert overhead_pct < 5.0, f"Study layer adds {overhead_pct:.2f}% over run_table"
