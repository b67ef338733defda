#!/usr/bin/env python
"""GPU-generation comparison: how much faster does GPT-175B train on newer clusters?

This example reproduces the paper's Section 5.2 case study (Fig. 5): the
GPT-175B training configuration of Table 3 is projected onto A100, H100,
H200 and B200 clusters, with the per-generation precision upgrades (the FP8
transformer engine on Hopper, FP4 on Blackwell) and the NVLink-Switch (NVS)
inter-node fabric.  The output shows where the time goes (compute vs
communication vs pipeline bubble + weight update) and the speed-up over the
A100 baseline.

Run it with ``python examples/gpu_generation_comparison.py``.
"""

from __future__ import annotations

from repro.analysis.formatting import render_table
from repro.studies import paper


def main() -> None:
    rows = paper.fig5_gpu_generation_scaling().run()

    print(render_table(
        rows,
        columns=[
            "system",
            "precision",
            "batch_size",
            "step_time_s",
            "compute_s",
            "communication_s",
            "other_s",
            "speedup_vs_a100",
        ],
        title="GPT-175B training across GPU generations (8192 GPUs, DP-TP-PP-SP = 128-8-8-8)",
        precision=2,
    ))

    a100 = rows[0]
    best = rows[-1]
    print(
        f"\nThe {best['system']} cluster trains GPT-175B about "
        f"{best['speedup_vs_a100']:.0f}x faster per sequence than the {a100['system']} baseline."
    )
    print("Key drivers, as in the paper:")
    print("  * H100's FP8 transformer engine multiplies the per-GPU math throughput,")
    print("  * the NVLink Switch (NVS) removes the exposed inter-node communication,")
    print("  * H200/B200's larger HBM allows larger (micro-)batches, shrinking bubbles,")
    print("  * B200's FP4 path doubles throughput again.")

    communication_share_ndr = rows[1]["communication_s"] / rows[1]["step_time_s"]
    communication_share_nvs = rows[2]["communication_s"] / rows[2]["step_time_s"]
    print(
        f"\nCommunication share of the step time: {communication_share_ndr:.0%} on H100-NDR "
        f"vs {communication_share_nvs:.0%} on H100-NVS."
    )


if __name__ == "__main__":
    main()
