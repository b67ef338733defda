"""Micro-benchmarks of the sweep pipeline's two speed layers.

* **Cached sweeps** (``test_cached_sweep_beats_naive_engine_rebuilds``): a
  repeated-scenario grid evaluated through one ``SweepRunner`` (dedup + LRU
  cache + shared engines) vs a fresh ``PerformancePredictionEngine`` per grid
  point.
* **Batched roofline backend** (``test_batched_backend_beats_scalar_loop``):
  a >=1k-GEMM batch evaluated uncached through the NumPy
  ``BatchedGemmTimeModel`` vs the scalar object-per-kernel
  ``GemmTimeModel.evaluate`` loop.  The headline numbers are written to
  ``BENCH_batched.json`` at the repo root so CI can archive the perf
  trajectory as an artifact.
"""

from __future__ import annotations

import itertools
import pathlib
import time

from conftest import emit, write_bench

from repro.core.engine import PerformancePredictionEngine
from repro.hardware.accelerator import get_accelerator
from repro.hardware.cluster import build_system
from repro.hardware.datatypes import Precision
from repro.models.zoo import get_model
from repro.perf.batched import BatchedGemmTimeModel, GemmBatch
from repro.perf.gemm import GemmTimeModel
from repro.sweep import Scenario, SweepRunner
from repro.workload.operators import GEMM

#: Where the batched-backend benchmark records its headline numbers.
BENCH_BATCHED_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_batched.json"

#: Unique scenario axes: (tensor_parallel, batch_size).
_UNIQUE_POINTS = ((1, 1), (2, 1), (2, 4))
#: How many times the grid repeats each unique point.
_REPEATS = 24


def _grid():
    model = get_model("Llama2-13B")
    system = build_system("A100", num_devices=8, intra_node="NVLink3", inter_node="HDR-IB")
    points = [
        (system, model, tensor_parallel, batch_size)
        for _ in range(_REPEATS)
        for tensor_parallel, batch_size in _UNIQUE_POINTS
    ]
    return points


def _run_naive(points):
    latencies = []
    for system, model, tensor_parallel, batch_size in points:
        engine = PerformancePredictionEngine(system)
        report = engine.predict_inference(
            model, batch_size=batch_size, tensor_parallel=tensor_parallel
        )
        latencies.append(report.total_latency)
    return latencies


def _run_cached(points):
    runner = SweepRunner()
    results = runner.run(
        Scenario.inference(system, model, batch_size=batch_size, tensor_parallel=tensor_parallel)
        for system, model, tensor_parallel, batch_size in points
    )
    return [result.value.total_latency for result in results], runner.stats


def test_cached_sweep_beats_naive_engine_rebuilds(benchmark):
    points = _grid()

    start = time.perf_counter()
    naive_latencies = _run_naive(points)
    naive_seconds = time.perf_counter() - start

    start = time.perf_counter()
    (cached_latencies, stats) = benchmark.pedantic(_run_cached, args=(points,), rounds=1, iterations=1)
    cached_seconds = time.perf_counter() - start

    speedup = naive_seconds / cached_seconds
    benchmark.extra_info["naive_seconds"] = naive_seconds
    benchmark.extra_info["cached_seconds"] = cached_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["evaluations"] = stats.evaluations
    benchmark.extra_info["cache_hits"] = stats.cache_hits

    emit(
        f"sweep throughput: {len(points)} grid points, {len(_UNIQUE_POINTS)} unique\n"
        f"  naive per-point engines : {naive_seconds * 1e3:8.1f} ms\n"
        f"  cached sweep runner     : {cached_seconds * 1e3:8.1f} ms\n"
        f"  speedup                 : {speedup:8.1f}x "
        f"({stats.evaluations} evaluations, {stats.cache_hits} cache hits)"
    )

    # Identical numbers, far less work.
    assert cached_latencies == naive_latencies
    assert stats.evaluations == len(_UNIQUE_POINTS)
    assert stats.cache_hits == len(points) - len(_UNIQUE_POINTS)
    assert speedup >= 2.0, f"cached sweep only {speedup:.2f}x faster than naive loop"


def _gemm_batch_grid():
    """A >=1k-GEMM grid of fat, skinny, and GEMV shapes across precisions."""
    dims = (1, 16, 64, 128, 512, 1024, 2048, 8192)
    gemms = []
    for m, n, k in itertools.product(dims, repeat=3):
        for precision in (Precision.FP16, Precision.INT8):
            gemms.append(
                GEMM(
                    name=f"g_{m}x{n}x{k}_{precision.value}",
                    m=m,
                    n=n,
                    k=k,
                    precision=precision,
                    batch=2 if m == 128 else 1,
                    weight_operand=(n >= k),
                )
            )
    return gemms


def test_batched_backend_beats_scalar_loop(benchmark):
    """The vectorized backend must be >=5x faster than the scalar loop, uncached."""
    accelerator = get_accelerator("A100")
    gemms = _gemm_batch_grid()
    assert len(gemms) >= 1000

    scalar_model = GemmTimeModel(accelerator=accelerator)  # cold memo cache
    start = time.perf_counter()
    scalar_points = [scalar_model.evaluate(gemm) for gemm in gemms]
    scalar_seconds = time.perf_counter() - start

    batched_model = BatchedGemmTimeModel.from_scalar(scalar_model)

    def _run_batched():
        # Includes the struct-of-arrays conversion: the honest uncached path
        # from kernel descriptors to timed, classified results.
        return batched_model.evaluate_batch(GemmBatch.from_gemms(gemms))

    start = time.perf_counter()
    result = _run_batched()
    batched_seconds = time.perf_counter() - start
    benchmark.pedantic(_run_batched, rounds=1, iterations=1)

    speedup = scalar_seconds / batched_seconds
    record = {
        "benchmark": "batched_vs_scalar_gemm_roofline",
        "accelerator": accelerator.name,
        "num_gemms": len(gemms),
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "speedup": speedup,
        "scalar_us_per_gemm": scalar_seconds / len(gemms) * 1e6,
        "batched_us_per_gemm": batched_seconds / len(gemms) * 1e6,
    }
    benchmark.extra_info.update(record)
    write_bench(BENCH_BATCHED_PATH, record)

    emit(
        f"batched roofline backend: {len(gemms)} uncached GEMMs on {accelerator.name}\n"
        f"  scalar object-per-kernel: {scalar_seconds * 1e3:8.1f} ms "
        f"({record['scalar_us_per_gemm']:.1f} us/GEMM)\n"
        f"  batched NumPy backend   : {batched_seconds * 1e3:8.1f} ms "
        f"({record['batched_us_per_gemm']:.2f} us/GEMM)\n"
        f"  speedup                 : {speedup:8.1f}x  -> {BENCH_BATCHED_PATH.name}"
    )

    # Identical numbers, vectorized work.
    assert result.to_points() == scalar_points
    assert speedup >= 5.0, f"batched backend only {speedup:.2f}x faster than the scalar loop"
