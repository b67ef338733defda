"""Benchmark: regenerate paper Fig. 7 (GEMM-time bound breakdown vs technology node).

For a single transformer layer of the GPT-7B technology-node case study,
split the per-layer GEMM time into compute-bound and memory-bound parts for
HBM2, HBM3 and HBM4 memory.  The paper shows the memory-bound share growing
as the logic node advances (compute gets faster while DRAM does not), with
faster HBM pushing the cross-over to later nodes.
"""

from __future__ import annotations

from conftest import emit, run_once

from repro.analysis.formatting import render_table
from repro.studies import paper
from repro.studies.extractors import fig7_projection

_COMBINATIONS = [
    {"dram": "HBM2", "network": "NDR-x8"},
    {"dram": "HBM3", "network": "NDR-x8"},
    {"dram": "HBM4", "network": "NDR-x8"},
]


def test_fig7_bound_breakdown(benchmark):
    study = paper.technology_node_scaling(combinations=_COMBINATIONS)
    rows = run_once(benchmark, lambda: fig7_projection(study.run()))

    emit(
        render_table(
            rows,
            columns=["technology_node", "dram", "compute_bound_ms", "memory_bound_ms", "memory_bound_fraction"],
            title="Fig. 7: per-layer GEMM time split by bound type vs technology node",
            precision=3,
        )
    )

    by_dram = {}
    for row in rows:
        by_dram.setdefault(row["dram"], {})[row["technology_node"]] = row

    benchmark.extra_info["hbm2_n1_memory_fraction"] = round(by_dram["HBM2"]["N1"]["memory_bound_fraction"], 3)
    benchmark.extra_info["hbm4_n1_memory_fraction"] = round(by_dram["HBM4"]["N1"]["memory_bound_fraction"], 3)

    for dram, curve in by_dram.items():
        fractions = [curve[node]["memory_bound_fraction"] for node in ("N12", "N10", "N7", "N5", "N3", "N2", "N1")]
        # The memory-bound share grows monotonically (or stays flat) with node scaling.
        assert all(later >= earlier - 1e-9 for earlier, later in zip(fractions, fractions[1:])), dram
    # By N1 a substantial part of the GEMM time is memory bound on HBM2, and far more
    # than at N12 where the slower compute kept the GEMMs compute bound.
    assert by_dram["HBM2"]["N1"]["memory_bound_fraction"] > 0.35
    assert by_dram["HBM2"]["N1"]["memory_bound_fraction"] > 3 * by_dram["HBM2"]["N12"]["memory_bound_fraction"]
    # Old node, fast memory: still compute dominated.
    assert by_dram["HBM4"]["N12"]["memory_bound_fraction"] < 0.3
    # Faster HBM keeps more of the GEMM time compute bound at the most advanced node.
    assert (
        by_dram["HBM4"]["N1"]["memory_bound_fraction"]
        <= by_dram["HBM3"]["N1"]["memory_bound_fraction"]
        <= by_dram["HBM2"]["N1"]["memory_bound_fraction"]
    )
    # Total per-layer GEMM time shrinks with node scaling (for fixed memory).
    assert (
        by_dram["HBM2"]["N1"]["compute_bound_ms"] + by_dram["HBM2"]["N1"]["memory_bound_ms"]
        < by_dram["HBM2"]["N12"]["compute_bound_ms"] + by_dram["HBM2"]["N12"]["memory_bound_ms"]
    )
