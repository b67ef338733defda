"""Benchmark: regenerate paper Fig. 9 (DRAM technology scaling for inference).

Keep the compute die fixed at the A100's 7 nm node and sweep the DRAM
technology from GDDR6 (0.6 TB/s) to HBM3e (4.8 TB/s) and a futuristic HBMX
(6.8 TB/s) for Llama2-13B inference (batch 1, 200+200 tokens) on 2- and
8-GPU systems over NVLink-Gen3, plus an HBMX + NVLink-Gen4 point.  The paper
finds near-linear scaling up to HBM3, saturation beyond HBM3e (the problem
becomes L2 bound), a ~12% communication gain from NVLink-Gen4, and a
communication time of roughly 1.6x the memory time at 8 GPUs.
"""

from __future__ import annotations

from conftest import emit, run_once

from repro.analysis.formatting import render_table
from repro.studies import paper


def test_fig9_memory_technology_scaling(benchmark):
    rows = run_once(benchmark, paper.inference_memory_scaling().run)
    # The dashed H100 lines of the figure, one per GPU count of the sweep.
    references = {
        f"H100x{count}": paper.h100_reference_latency(num_gpus=count)
        for count in sorted(set(rows["num_gpus"].tolist()))
    }

    table_rows = [
        {
            "memory": row.dram_technology,
            "network": row.network,
            "gpus": row.num_gpus,
            "memory_s": row.memory_time,
            "communication_s": row.communication_time,
            "total_s": row.total_latency,
        }
        for row in rows
    ]
    emit(
        render_table(
            table_rows,
            title="Fig. 9: Llama2-13B inference latency vs DRAM technology (A100-class compute)",
            precision=2,
        )
    )
    emit("H100 reference latencies (dashed lines): " + ", ".join(f"{k}={v:.2f}s" for k, v in references.items()))

    def pick(gpus, dram, network="NVLink3"):
        return next(r for r in rows if r.num_gpus == gpus and r.dram_technology == dram and r.network == network)

    benchmark.extra_info["latency_2gpu_gddr6_s"] = round(pick(2, "GDDR6").total_latency, 2)
    benchmark.extra_info["latency_2gpu_hbmx_s"] = round(pick(2, "HBMX").total_latency, 2)
    benchmark.extra_info["comm_over_memory_8gpu"] = round(
        pick(8, "HBM2E").communication_time / pick(8, "HBM2E").memory_time, 2
    )

    for gpus in (2, 8):
        # Latency decreases monotonically with DRAM bandwidth along the NVLink3 sweep.
        sweep = [pick(gpus, dram).total_latency for dram in ("GDDR6", "HBM2", "HBM2E", "HBM3", "HBM3E", "HBMX")]
        assert sweep == sorted(sweep, reverse=True)
        # Near-linear scaling early in the sweep, saturation at the end (L2 bound).
        early_gain = pick(gpus, "GDDR6").memory_time / pick(gpus, "HBM2E").memory_time
        late_gain = pick(gpus, "HBM3E").memory_time / pick(gpus, "HBMX").memory_time
        assert early_gain > 2.0
        assert late_gain < 1.10
        # NVLink-Gen4 yields a modest communication gain (paper: ~12%).
        nv3 = pick(gpus, "HBMX", "NVLink3")
        nv4 = pick(gpus, "HBMX", "NVLink4")
        gain = 1.0 - nv4.communication_time / nv3.communication_time
        assert 0.03 < gain < 0.3
    # At 8 GPUs the communication time is comparable to / larger than the memory time
    # once the memory is fast (the paper reports ~1.6x for Llama2-13B).
    fast_memory = pick(8, "HBM3E")
    assert 1.0 < fast_memory.communication_time / fast_memory.memory_time < 2.5
    # The real H100 (faster on-chip memory and network) beats the A100-with-HBM3 projection.
    assert references["H100x2"] < pick(2, "HBM3").total_latency
    assert references["H100x8"] < pick(8, "HBM3").total_latency
