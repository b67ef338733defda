"""Tests for the per-layer operator templates (Megatron TP sharding)."""

import numpy as np
import pytest

from repro.caching import Memo
from repro.errors import ConfigurationError
from repro.hardware.datatypes import Precision
from repro.models.transformer import MLPActivation, TransformerConfig
from repro.workload.operators import CollectiveColumns, CollectiveKind, GEMM, GemmColumns
from repro.workload.transformer_layer import (
    GELU_FLOPS_PER_ELEMENT,
    SILU_FLOPS_PER_ELEMENT,
    LayerTemplate,
    backward_gemms,
    layer_template,
)


def _template(model, tp=1, sp=False, **kwargs):
    return LayerTemplate(model, tensor_parallel=tp, sequence_parallel=sp, **kwargs)


def _by_name(ops):
    return {op.name: op for op in ops}


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
    assert gemms["attention_scores"].m == 1  # one new query token
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


def test_layer_template_memo_keeps_one_template_per_configuration(tiny_model):
    templates = Memo()
    first = layer_template(templates, tiny_model, tensor_parallel=2)
    assert layer_template(templates, tiny_model, tensor_parallel=2) is first
    assert layer_template(templates, tiny_model, tensor_parallel=4) is not first
    assert layer_template(templates, tiny_model, tensor_parallel=2, with_dropout=False) is not first
    # Without a memo every call builds a fresh template.
    assert layer_template(None, tiny_model, tensor_parallel=2) is not layer_template(None, tiny_model, tensor_parallel=2)


def test_backward_gemms_swap_operands_with_equal_flops(tiny_model):
    forward = _by_name(_template(tiny_model).forward_gemms(2, 128))["mlp_h_to_4h"]
    dgrad, wgrad = backward_gemms(forward)
    assert (dgrad.name, wgrad.name) == ("mlp_h_to_4h_dgrad", "mlp_h_to_4h_wgrad")
    assert dgrad.shape == (forward.m, forward.k, forward.n, forward.batch)
    assert wgrad.shape == (forward.k, forward.n, forward.m, forward.batch)
    assert dgrad.weight_operand and not wgrad.weight_operand
    assert wgrad.accumulate and not dgrad.accumulate
    assert dgrad.flops == wgrad.flops == forward.flops


def test_lm_head_shards_vocabulary_over_tp(tiny_model):
    template = _template(tiny_model, tp=4)
    head = template.lm_head(6)
    assert head.shape == (6, tiny_model.vocab_size // 4, tiny_model.hidden_size, 1)
    assert head.weight_operand
    assert template.lm_head(6) is head  # memoized per token count
    assert _template(tiny_model).lm_head(6).n == tiny_model.vocab_size


def test_kv_cache_append_bytes_follow_kv_heads(tiny_swiglu_model):
    template = _template(tiny_swiglu_model, tp=2, use_kv_cache=True, with_dropout=False)
    append = _by_name(template.forward_compute_ops(3, 1, 50))["kv_cache_append"]
    kv_heads_per_device = tiny_swiglu_model.num_kv_heads // 2
    # K and V of the 3 new tokens, for this rank's KV heads.
    assert append.bytes_moved == 2 * 3 * kv_heads_per_device * tiny_swiglu_model.head_dim * 2
    assert append.is_write


def test_mlp_activation_kernel_follows_the_activation(tiny_model, tiny_swiglu_model):
    gelu = _by_name(_template(tiny_model, tp=2).forward_compute_ops(2, 128))["mlp_gelu"]
    assert gelu.num_elements == 2 * 128 * tiny_model.ffn_hidden_size // 2
    assert gelu.flops == gelu.num_elements * GELU_FLOPS_PER_ELEMENT
    silu = _by_name(_template(tiny_swiglu_model).forward_compute_ops(2, 128))["mlp_silu_mul"]
    assert silu.num_elements == 2 * 128 * tiny_swiglu_model.ffn_hidden_size
    assert silu.flops == silu.num_elements * SILU_FLOPS_PER_ELEMENT
    # SwiGLU multiplies the gate by the up projection: two operand streams per element.
    assert (gelu.reads_per_element, silu.reads_per_element) == (1.0, 2.0)


# -- column views ------------------------------------------------------------------------

#: Token counts and lengths the column views are checked at, small and large.
_SIZES = np.array([*range(1, 100), 255, 256, 257, 511, 512, 513, 2048, 4096, 12_345, 65_536], dtype=np.int64)


def _odd_ffn_model():
    """SwiGLU with 2 KV heads and an FFN width and vocabulary TP 8 does not divide."""
    return TransformerConfig(
        name="odd-ffn",
        num_layers=2,
        hidden_size=512,
        num_heads=8,
        num_kv_heads=2,
        ffn_hidden_size=1000,
        vocab_size=32001,
        max_seq_len=256,
        mlp_activation=MLPActivation.SWIGLU,
    )


def _column_templates(tiny_model, tiny_swiglu_model):
    serving = dict(with_dropout=False, use_kv_cache=True)
    return [
        _template(tiny_model, **serving),  # GELU, MHA
        _template(tiny_swiglu_model, tp=4, **serving),  # SwiGLU, GQA
        _template(_odd_ffn_model(), tp=8, **serving),
        _template(tiny_swiglu_model, tp=2, precision=Precision.FP8, **serving),
        _template(tiny_model, tp=2, sp=True),  # training: dropouts, sharded norms
    ]


def _entry(values, index):
    return np.broadcast_to(values, _SIZES.shape)[index]


def _assert_entry_equals(columns, ops, index):
    """Entry ``index`` of every column kernel equals the matching operator, field by field."""
    assert [column.name for column in columns] == [op.name for op in ops]
    for column, op in zip(columns, ops):
        if isinstance(column, GemmColumns):
            assert isinstance(op, GEMM)
            assert [_entry(getattr(column, field), index) for field in ("m", "n", "k", "batch")] == list(op.shape)
            assert (column.precision, column.weight_operand, column.accumulate) == (
                op.precision,
                op.weight_operand,
                op.accumulate,
            )
        elif isinstance(column, CollectiveColumns):
            assert _entry(column.data_bytes, index) == op.data_bytes
            assert (column.collective, column.group_size, column.scope) == (op.collective, op.group_size, op.scope)
        else:
            for field in ("flops", "bytes_read", "bytes_written", "bytes_total"):
                assert _entry(getattr(column, field), index) == getattr(op, field), (op.name, field)


def test_column_views_equal_operator_views(tiny_model, tiny_swiglu_model):
    for template in _column_templates(tiny_model, tiny_swiglu_model):
        token_columns = template.step_token_columns(_SIZES)
        decode_columns = template.step_attention_columns(1, _SIZES)
        prefill_columns = template.step_attention_columns(_SIZES, _SIZES)
        head_columns = template.lm_head_columns(_SIZES)
        comm_columns = {
            scope: template.forward_communication_columns(_SIZES, scope) for scope in ("intra_node", "inter_node")
        }
        for index, size in enumerate(_SIZES.tolist()):
            _assert_entry_equals(token_columns, template.step_token_ops(size), index)
            _assert_entry_equals(decode_columns, template.step_attention_ops(1, size), index)
            _assert_entry_equals(prefill_columns, template.step_attention_ops(size, size), index)
            _assert_entry_equals((head_columns,), (template.lm_head(size),), index)
            for scope, columns in comm_columns.items():
                _assert_entry_equals(columns, template.forward_communication(size, scope), index)
