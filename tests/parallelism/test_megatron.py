"""Tests for Megatron tensor-parallel sharding bookkeeping.

The TP collectives' bytes are built by the layer template, which the
volume test below prices through.
"""

import pytest

from repro.hardware.datatypes import Precision
from repro.memmodel.footprint import model_weight_bytes
from repro.parallelism.megatron import TensorParallelShard
from repro.workload.transformer_layer import LayerTemplate


def _tp_forward_bytes(model, micro_batch, seq_len, precision=Precision.FP16):
    """Bytes one rank contributes to one layer's forward TP collectives."""
    template = LayerTemplate(model, tensor_parallel=8, precision=precision)
    return sum(op.data_bytes for op in template.forward_communication(micro_batch * seq_len))


def test_shard_divides_attention_and_mlp(gpt_175b):
    shard = TensorParallelShard(model=gpt_175b, tensor_parallel=8)
    assert shard.attention_parameters_per_layer == pytest.approx(gpt_175b.attention_parameters_per_layer / 8)
    assert shard.mlp_parameters_per_layer == pytest.approx(gpt_175b.mlp_parameters_per_layer / 8)


def test_norm_parameters_are_replicated(gpt_175b):
    shard = TensorParallelShard(model=gpt_175b, tensor_parallel=8)
    assert shard.norm_parameters_per_layer == gpt_175b.norm_parameters_per_layer


def test_embedding_is_vocab_sharded(gpt_175b):
    shard = TensorParallelShard(model=gpt_175b, tensor_parallel=8)
    assert shard.embedding_parameters == pytest.approx(gpt_175b.embedding_parameters / 8)


def test_parameters_per_rank_sums_layers(gpt_175b):
    """One rank holds its attention, MLP and norm shard of every layer plus its embedding shard."""
    shard = TensorParallelShard(model=gpt_175b, tensor_parallel=8)
    per_layer = shard.attention_parameters_per_layer + shard.mlp_parameters_per_layer + shard.norm_parameters_per_layer
    assert shard.parameters_per_layer == per_layer
    weights = model_weight_bytes(gpt_175b, precision=Precision.FP16, tensor_parallel=8)
    assert weights == pytest.approx((gpt_175b.num_layers * per_layer + shard.embedding_parameters) * 2)


def test_total_shards_reconstruct_model(gpt_175b):
    """Summing the per-rank weights over the TP group recovers the full model (minus replicated norms)."""
    tp = 8
    shard = TensorParallelShard(model=gpt_175b, tensor_parallel=tp)
    reconstructed = tp * (
        shard.attention_parameters_per_layer + shard.mlp_parameters_per_layer
    ) * gpt_175b.num_layers + tp * shard.embedding_parameters
    expected = (
        (gpt_175b.attention_parameters_per_layer + gpt_175b.mlp_parameters_per_layer) * gpt_175b.num_layers
        + gpt_175b.embedding_parameters
    )
    assert reconstructed == pytest.approx(expected)


def test_tp_communication_scales_with_batch_and_precision(gpt_175b):
    base = _tp_forward_bytes(gpt_175b, 1, 2048)
    assert _tp_forward_bytes(gpt_175b, 2, 2048) == pytest.approx(2 * base)
    assert _tp_forward_bytes(gpt_175b, 1, 2048, Precision.FP8) == pytest.approx(base / 2)
