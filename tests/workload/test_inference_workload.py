"""Tests for the inference (prefill / decode) workload.

``InferencePerformanceModel.plan`` takes each phase's per-layer operators
from the serving layer template at the phase's shape; the inference model
prices them once per layer and adds the logits GEMM.
"""

import pytest

from repro.core.inference import InferencePerformanceModel
from repro.errors import ConfigurationError
from repro.hardware.datatypes import Precision
from repro.workload.operators import GEMM
from repro.workload.transformer_layer import LayerTemplate


@pytest.fixture
def inference(single_node_a100):
    return InferencePerformanceModel(system=single_node_a100)


def _flops(ops):
    return sum(op.flops for op in ops)


def _scores(ops):
    (scores,) = [op for op in ops if op.name == "attention_scores"]
    return scores


def test_spec_validation(tiny_model, inference):
    """A request needs a batch and a prompt of at least one and a non-negative generation length."""
    for batch, prompt, generate in ((0, 64, 32), (1, 0, 32), (1, 64, -1)):
        with pytest.raises(ConfigurationError, match="must be positive; generated_tokens non-negative"):
            inference.plan(tiny_model, batch_size=batch, prompt_tokens=prompt, generated_tokens=generate)


def test_average_decode_kv_len(tiny_model, inference):
    def kv_len(generate):
        return _scores(inference.plan(tiny_model, prompt_tokens=200, generated_tokens=generate).decode_ops).n

    assert kv_len(200) == 200 + 199 // 2  # the cache's mid-point
    assert kv_len(1) == kv_len(0) == 200


def test_prefill_prices_each_layer_kernel_once_per_layer(tiny_model, inference):
    report = inference.predict(tiny_model, batch_size=1, prompt_tokens=64, generated_tokens=32)
    layer_entries = [entry for entry in report.prefill.kernel_breakdown if entry.name != "lm_head"]
    plan = inference.plan(tiny_model, batch_size=1, prompt_tokens=64, generated_tokens=32)
    assert len(layer_entries) == len(plan.prefill_ops)
    assert {entry.count for entry in layer_entries} == {tiny_model.num_layers}


def test_prefill_includes_lm_head_for_last_token_only(tiny_model, inference):
    plan = inference.plan(tiny_model, batch_size=4, prompt_tokens=64)
    assert isinstance(plan.lm_head, GEMM)
    assert plan.lm_head.name == "lm_head"
    assert plan.lm_head.m == 4  # only the last position per sequence
    assert not any(op.name == "lm_head" for op in plan.prefill_ops)
    assert plan.gemm_queries().count(plan.lm_head) == 1


def test_decode_flops_much_smaller_than_prefill(tiny_model, inference):
    plan = inference.plan(tiny_model, prompt_tokens=128, generated_tokens=16)
    assert _flops(plan.decode_ops) < _flops(plan.prefill_ops) / 16


def test_tp_reduces_per_rank_flops_and_adds_comm(tiny_model, inference):
    single = inference.plan(tiny_model, tensor_parallel=1)
    sharded = inference.plan(tiny_model, tensor_parallel=4)
    assert _scores(sharded.decode_ops).n == _scores(single.decode_ops).n
    assert _flops(sharded.decode_ops) < _flops(single.decode_ops)
    assert len(sharded.decode_comms) == 2  # two all-reduces per layer
    assert single.decode_comms == ()


def test_phase_ops_come_from_the_serving_template(tiny_model, inference):
    """Both phases render the TP, precision, KV-cache, dropout-free layer at their own shape."""
    plan = inference.plan(
        tiny_model, batch_size=3, prompt_tokens=40, generated_tokens=21, tensor_parallel=2, precision=Precision.FP8
    )
    template = LayerTemplate(
        tiny_model, tensor_parallel=2, precision=Precision.FP8, with_dropout=False, use_kv_cache=True
    )
    scope = inference.step_cost.tp_scope(2)
    assert plan.prefill_ops == template.forward_compute_ops(3, 40, 40)
    assert plan.decode_ops == template.forward_compute_ops(3, 1, 40 + 20 // 2)
    assert plan.prefill_comms == template.forward_communication(3 * 40, scope)
    assert plan.decode_comms == template.forward_communication(3, scope)
    for ops in (plan.prefill_ops, plan.decode_ops):
        assert {op.precision for op in ops} == {Precision.FP8}
        assert any(op.name == "kv_cache_append" for op in ops)
        assert not any("dropout" in op.name for op in ops)
    assert (plan.batch_size, plan.prompt_tokens, plan.generated_tokens, plan.tensor_parallel) == (3, 40, 21, 2)
