"""Tests for the per-layer operator templates (Megatron TP sharding)."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.datatypes import Precision
from repro.workload.operators import CollectiveKind, GEMM
from repro.workload.transformer_layer import LayerExecutionSpec, LayerTemplate


def _template(model, tp=1, sp=False, **kwargs):
    return LayerTemplate(model, tensor_parallel=tp, sequence_parallel=sp, **kwargs)


def _by_name(ops):
    return {op.name: op for op in ops}


def test_spec_validation(tiny_model):
    with pytest.raises(ConfigurationError, match="micro_batch and seq_len must be positive"):
        LayerExecutionSpec(model=tiny_model, micro_batch=0, seq_len=128)
    with pytest.raises(ConfigurationError, match="must divide the number of attention heads"):
        LayerExecutionSpec(model=tiny_model, micro_batch=2, seq_len=128, tensor_parallel=3)
    spec = LayerExecutionSpec(model=tiny_model, micro_batch=2, seq_len=128)
    assert spec.kv_len == spec.seq_len
    assert spec.shape == (2, 128, 128)


def test_template_validation(tiny_model):
    with pytest.raises(ConfigurationError, match="tensor_parallel must be >= 1"):
        _template(tiny_model, tp=0)
    with pytest.raises(ConfigurationError, match="tensor parallel degree 3 must divide"):
        _template(tiny_model, tp=3)  # does not divide 8 heads
    template = _template(tiny_model)
    for micro_batch, seq_len in ((0, 128), (2, 0)):
        with pytest.raises(ConfigurationError, match="micro_batch and seq_len must be positive"):
            template.forward_compute_ops(micro_batch, seq_len)
    # kv_len=0 means seq_len: both spell the same (memoized) operators.
    assert template.forward_compute_ops(2, 128) is template.forward_compute_ops(2, 128, 128)


def test_attention_gemm_shapes_no_tp(tiny_model):
    gemms = _by_name(_template(tiny_model).forward_gemms(2, 128))
    qkv = gemms["qkv_projection"]
    assert qkv.m == 2 * 128
    assert qkv.k == tiny_model.hidden_size
    assert qkv.n == 3 * tiny_model.hidden_size
    scores = gemms["attention_scores"]
    assert scores.m == 128 and scores.n == 128 and scores.k == tiny_model.head_dim
    assert scores.batch == 2 * tiny_model.num_heads
    out = gemms["attention_output"]
    assert out.k == tiny_model.hidden_size and out.n == tiny_model.hidden_size


def test_tp_shards_attention_and_mlp(tiny_model):
    full_flops = sum(g.flops for g in _template(tiny_model, tp=1).forward_gemms(2, 128))
    sharded_flops = sum(g.flops for g in _template(tiny_model, tp=4).forward_gemms(2, 128))
    # The per-rank FLOPs shrink by the TP degree (the LM head is not included here).
    assert sharded_flops == pytest.approx(full_flops / 4, rel=1e-6)


def test_gqa_qkv_width(tiny_swiglu_model):
    qkv = _template(tiny_swiglu_model).forward_gemms(2, 128)[0]
    expected = tiny_swiglu_model.hidden_size + 2 * tiny_swiglu_model.num_kv_heads * tiny_swiglu_model.head_dim
    assert qkv.n == expected


def test_swiglu_has_three_mlp_gemms(tiny_swiglu_model, tiny_model):
    def mlp_gemms(model):
        return [g for g in _template(model).forward_gemms(2, 128) if g.name.startswith("mlp")]

    assert len(mlp_gemms(tiny_swiglu_model)) == 3
    assert len(mlp_gemms(tiny_model)) == 2


def test_forward_gemm_names_match_paper_table4(tiny_model):
    names = [g.name for g in _template(tiny_model).forward_gemms(2, 128)]
    for expected in ("qkv_projection", "attention_scores", "attention_context", "attention_output", "mlp_h_to_4h", "mlp_4h_to_h"):
        assert expected in names


def test_dropout_only_in_training(tiny_model):
    training_names = [op.name for op in _template(tiny_model, with_dropout=True).forward_compute_ops(2, 128)]
    inference_names = [op.name for op in _template(tiny_model, with_dropout=False).forward_compute_ops(2, 128)]
    assert any("dropout" in name for name in training_names)
    assert not any("dropout" in name for name in inference_names)


def test_kv_cache_append_present_when_enabled(tiny_model):
    template = _template(tiny_model, use_kv_cache=True, with_dropout=False)
    names = [op.name for op in template.forward_compute_ops(2, 128)]
    assert "kv_cache_append" in names


def test_decode_spec_uses_kv_len(tiny_model):
    template = _template(tiny_model, with_dropout=False, use_kv_cache=True)
    gemms = _by_name(template.forward_gemms(2, 1, 333))
    assert gemms["attention_scores"].n == 333
    assert gemms["attention_context"].k == 333
    assert gemms["qkv_projection"].m == 2


def test_token_ops_are_shared_across_kv_lengths(tiny_model):
    template = _template(tiny_model, with_dropout=False, use_kv_cache=True)
    short = template.forward_compute_ops(2, 1, 100)
    long = template.forward_compute_ops(2, 1, 101)
    kv_dependent = {"attention_scores", "attention_softmax", "attention_context"}
    for op, other in zip(short, long):
        assert (op is other) == (op.name not in kv_dependent)


def test_step_cost_orders_hold_the_forward_operators(tiny_model):
    template = _template(tiny_model, with_dropout=False, use_kv_cache=True)
    forward = template.forward_compute_ops(1, 16)
    step = template.step_token_ops(16) + template.step_attention_ops(16, 16)
    assert sorted(map(id, step)) == sorted(map(id, forward))
    assert [op.name for op in template.step_attention_ops(1, 40)] == [
        "attention_scores",
        "attention_context",
        "attention_softmax",
    ]


def test_forward_communication_all_reduce_count_and_volume(tiny_model):
    comm = _template(tiny_model, tp=4).forward_communication(2 * 128)
    assert len(comm) == 2
    expected_payload = 2 * 128 * tiny_model.hidden_size * Precision.FP16.bytes_per_element
    for op in comm:
        assert op.collective is CollectiveKind.ALL_REDUCE
        assert op.data_bytes == pytest.approx(expected_payload)
        assert op.group_size == 4


def test_sequence_parallel_swaps_collectives_same_volume(tiny_model):
    plain = _template(tiny_model, tp=4).forward_communication(256)
    sp = _template(tiny_model, tp=4, sp=True).forward_communication(256)
    assert len(sp) == 4  # reduce-scatter + all-gather per block
    kinds = {op.collective for op in sp}
    assert kinds == {CollectiveKind.REDUCE_SCATTER, CollectiveKind.ALL_GATHER}
    assert sum(op.data_bytes for op in sp) == pytest.approx(2 * sum(op.data_bytes for op in plain))
    # A reduce-scatter + all-gather pair moves the same volume as one all-reduce,
    # so SP adds no communication volume overall.


def test_no_communication_without_tp(tiny_model):
    assert _template(tiny_model, tp=1).forward_communication(256) == ()


def test_sequence_parallel_shards_norm_elements(tiny_model):
    plain = _template(tiny_model, tp=4, sp=False)
    sp = _template(tiny_model, tp=4, sp=True)
    assert sp.norm_elements(256) == plain.norm_elements(256) // 4


def test_backward_ops_flops_are_double_forward(tiny_model):
    template = _template(tiny_model, tp=2)
    forward_gemm_flops = sum(g.flops for g in template.forward_gemms(2, 128))
    backward_gemm_flops = sum(op.flops for op in template.backward_compute_ops(2, 128) if isinstance(op, GEMM))
    assert backward_gemm_flops == pytest.approx(2 * forward_gemm_flops, rel=1e-6)


def test_backward_communication_mirrors_forward(tiny_model):
    template = _template(tiny_model, tp=4)
    fwd = template.forward_communication(256)
    bwd = template.backward_communication(256)
    assert len(fwd) == len(bwd)
    assert sum(op.data_bytes for op in fwd) == pytest.approx(sum(op.data_bytes for op in bwd))
    assert template.communication(256) == fwd + bwd
