"""Benchmark: regenerate paper Fig. 8 (prefill boundedness and memory inset).

Split the per-layer GEMM time of the Llama2-13B summarization (prefill) phase
into compute-bound and memory-bound parts for batch sizes 1 and 16 on the
A100 and the H100, and report the memory inset (model weights and KV-cache
size versus device capacity).  The paper's headline: on the H100 the batch-1
prefill is entirely memory bound, and growing the batch to 16 turns most of
the GEMM time compute bound on both GPUs.
"""

from __future__ import annotations

from conftest import emit, run_once

from repro.analysis.formatting import render_table
from repro.studies import paper


def test_fig8_inference_boundedness(benchmark):
    rows = run_once(benchmark, paper.fig8_inference_boundedness().run)

    emit(
        render_table(
            rows,
            columns=[
                "gpu",
                "batch_size",
                "compute_bound_ms",
                "memory_bound_ms",
                "compute_bound_fraction",
                "weights_gb",
                "kv_cache_gb",
                "device_memory_gb",
            ],
            title="Fig. 8: prefill GEMM time by bound type and the weights/KV-cache memory inset (Llama2-13B)",
            precision=2,
        )
    )

    by_key = {(row["gpu"], row["batch_size"]): row for row in rows}
    benchmark.extra_info["h100_b1_compute_fraction"] = round(by_key[("H100", 1)]["compute_bound_fraction"], 3)
    benchmark.extra_info["h100_b16_compute_fraction"] = round(by_key[("H100", 16)]["compute_bound_fraction"], 3)

    # H100 at batch 1 is fully memory bound; batch 16 flips it mostly compute bound (paper: 0% -> 85%).
    assert by_key[("H100", 1)]["compute_bound_fraction"] < 0.1
    assert by_key[("H100", 16)]["compute_bound_fraction"] > 0.6
    # A100 is compute dominated at both batch sizes, more so at batch 16 (paper: 67% -> 96%).
    assert by_key[("A100", 1)]["compute_bound_fraction"] > 0.5
    assert by_key[("A100", 16)]["compute_bound_fraction"] >= by_key[("A100", 1)]["compute_bound_fraction"]
    # Memory inset: weights do not depend on the batch, the KV-cache grows 16x and
    # everything fits in the 80 GB devices.
    for gpu in ("A100", "H100"):
        assert by_key[(gpu, 1)]["weights_gb"] == by_key[(gpu, 16)]["weights_gb"]
        assert by_key[(gpu, 16)]["kv_cache_gb"] > 10 * by_key[(gpu, 1)]["kv_cache_gb"]
        assert by_key[(gpu, 16)]["weights_gb"] + by_key[(gpu, 16)]["kv_cache_gb"] < by_key[(gpu, 16)]["device_memory_gb"]
    # On the H100 the batch-1 layer is memory (weight-streaming) bound, so serving a
    # 16x batch costs much less than 16x the GEMM time -- the throughput benefit the
    # paper highlights ("larger batch sizes improve inference throughput at the cost
    # of latency, but the growth of latency with B is rather modest").
    h100_b1 = by_key[("H100", 1)]["compute_bound_ms"] + by_key[("H100", 1)]["memory_bound_ms"]
    h100_b16 = by_key[("H100", 16)]["compute_bound_ms"] + by_key[("H100", 16)]["memory_bound_ms"]
    assert h100_b16 < 14 * h100_b1
