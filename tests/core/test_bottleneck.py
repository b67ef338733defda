"""Tests for the per-GEMM bottleneck analysis (Table 4 / Figs. 7-8 machinery)."""

import pytest

from repro.core.bottleneck import (
    attention_layer_bound_breakdown,
    decode_gemm_table,
    gemm_time_by_bound,
    prefill_gemm_table,
)
from repro.hardware.uarch import derive_device


EXPECTED_GEMM_NAMES = {
    "qkv_projection",
    "attention_scores",
    "attention_context",
    "attention_output",
    "mlp_h_to_4h",
    "mlp_4h_to_h",
}


def test_prefill_table_contains_all_paper_gemms(a100, llama2_13b):
    entries = prefill_gemm_table(llama2_13b, a100, prompt_tokens=200)
    names = {entry.name for entry in entries}
    assert EXPECTED_GEMM_NAMES.issubset(names)
    assert all(entry.time > 0 for entry in entries)


def test_prefill_a100_mostly_compute_bound_h100_memory_bound(a100, h100, llama2_13b):
    """Table 4's headline: A100 prefill GEMMs are largely compute bound, H100's are all memory bound."""
    a100_entries = prefill_gemm_table(llama2_13b, a100, prompt_tokens=200)
    h100_entries = prefill_gemm_table(llama2_13b, h100, prompt_tokens=200)
    a100_by_name = {e.name: e for e in a100_entries}
    assert a100_by_name["mlp_h_to_4h"].bound_label == "compute"
    assert a100_by_name["qkv_projection"].bound_label == "compute"
    assert a100_by_name["attention_scores"].bound_label == "memory"
    assert a100_by_name["attention_context"].bound_label == "memory"
    assert all(e.bound_label == "memory" for e in h100_entries)


def test_prefill_attention_gemms_are_fastest(a100, llama2_13b):
    entries = {e.name: e for e in prefill_gemm_table(llama2_13b, a100, prompt_tokens=200)}
    assert entries["attention_scores"].time < entries["mlp_h_to_4h"].time
    assert entries["attention_scores"].time < entries["qkv_projection"].time


def test_prefill_times_are_microsecond_scale(a100, llama2_13b):
    entries = prefill_gemm_table(llama2_13b, a100, prompt_tokens=200)
    for entry in entries:
        assert 0.1 < entry.time_us < 2000


def test_decode_table_all_memory_bound(a100, llama2_13b):
    entries = decode_gemm_table(llama2_13b, a100, kv_len=300)
    assert all(entry.bound_label == "memory" for entry in entries)
    assert all(entry.m == 1 or entry.name == "qkv_projection" for entry in entries)


def test_gemm_time_by_bound_totals(a100, llama2_13b):
    entries = prefill_gemm_table(llama2_13b, a100, prompt_tokens=200)
    totals = gemm_time_by_bound(entries)
    assert totals["total"] == pytest.approx(totals["compute"] + totals["memory"])
    assert 0 <= totals["compute_fraction"] <= 1


def test_batch16_increases_compute_bound_fraction_on_h100(h100, llama2_13b):
    """Fig. 8: on the H100, batch 1 prefill is fully memory bound while batch 16 is mostly compute bound."""
    b1 = gemm_time_by_bound(prefill_gemm_table(llama2_13b, h100, batch_size=1, prompt_tokens=200))
    b16 = gemm_time_by_bound(prefill_gemm_table(llama2_13b, h100, batch_size=16, prompt_tokens=200))
    assert b1["compute_fraction"] < 0.1
    assert b16["compute_fraction"] > 0.6


def test_tensor_parallel_shrinks_gemm_times(a100, llama2_13b):
    single = {e.name: e.time for e in prefill_gemm_table(llama2_13b, a100, tensor_parallel=1)}
    sharded = {e.name: e.time for e in prefill_gemm_table(llama2_13b, a100, tensor_parallel=4)}
    assert sharded["mlp_h_to_4h"] < single["mlp_h_to_4h"]


def test_attention_layer_bound_breakdown_shifts_with_technology(gpt_175b):
    """Fig. 7: advancing the logic node while keeping HBM2 turns compute-bound GEMM time into memory-bound time."""
    old_node = derive_device("N12", dram="HBM2")
    new_node = derive_device("N1", dram="HBM2")
    old = attention_layer_bound_breakdown(gpt_175b, old_node, micro_batch=1, seq_len=2048, tensor_parallel=8)
    new = attention_layer_bound_breakdown(gpt_175b, new_node, micro_batch=1, seq_len=2048, tensor_parallel=8)
    old_memory_fraction = old["memory_bound"] / old["total"]
    new_memory_fraction = new["memory_bound"] / new["total"]
    assert new_memory_fraction > old_memory_fraction
    assert new["total"] < old["total"]


def test_attention_layer_bound_breakdown_gpt175b_tp8_mostly_compute_bound(a100, gpt_175b):
    breakdown = attention_layer_bound_breakdown(gpt_175b, a100, micro_batch=1, seq_len=2048, tensor_parallel=8)
    assert breakdown["compute_bound"] > 0
    assert breakdown["memory_bound"] >= 0
    # Training GEMMs on the A100 are predominantly compute bound.
    assert breakdown["compute_bound"] > breakdown["memory_bound"]
