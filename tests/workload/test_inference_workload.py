"""Tests for the inference (prefill / decode) phase spec.

A phase's per-layer operators come from the layer template its layer spec
selects; the inference model prices them once per layer and adds the logits
GEMM.
"""

import pytest

from repro.core.inference import InferencePerformanceModel
from repro.errors import ConfigurationError
from repro.hardware.datatypes import Precision
from repro.workload.inference import InferencePhaseSpec
from repro.workload.operators import GEMM


def _spec(model, batch=1, prompt=64, generate=32, tp=1, precision=Precision.FP16):
    return InferencePhaseSpec(
        model=model,
        batch_size=batch,
        prompt_len=prompt,
        generated_tokens=generate,
        tensor_parallel=tp,
        precision=precision,
    )


def _ops(layer_spec):
    return layer_spec.template().forward_compute_ops(*layer_spec.shape)


def _flops(layer_spec):
    return sum(op.flops for op in _ops(layer_spec))


def test_spec_validation(tiny_model):
    with pytest.raises(ConfigurationError):
        InferencePhaseSpec(model=tiny_model, batch_size=0, prompt_len=64, generated_tokens=32)
    with pytest.raises(ConfigurationError):
        InferencePhaseSpec(model=tiny_model, batch_size=1, prompt_len=0, generated_tokens=32)


def test_average_decode_kv_len(tiny_model):
    spec = _spec(tiny_model, prompt=200, generate=200)
    assert 200 <= spec.average_decode_kv_len <= 400
    no_generation = _spec(tiny_model, prompt=200, generate=0)
    assert no_generation.average_decode_kv_len == 200


def test_prefill_prices_each_layer_kernel_once_per_layer(tiny_model, single_node_a100):
    report = InferencePerformanceModel(system=single_node_a100).predict(
        tiny_model, batch_size=1, prompt_tokens=64, generated_tokens=32
    )
    layer_entries = [entry for entry in report.prefill.kernel_breakdown if entry.name != "lm_head"]
    assert len(layer_entries) == len(_ops(_spec(tiny_model).prefill_layer_spec()))
    assert {entry.count for entry in layer_entries} == {tiny_model.num_layers}


def test_prefill_includes_lm_head_for_last_token_only(tiny_model, single_node_a100):
    plan = InferencePerformanceModel(system=single_node_a100).plan(tiny_model, batch_size=4, prompt_tokens=64)
    assert isinstance(plan.lm_head, GEMM)
    assert plan.lm_head.name == "lm_head"
    assert plan.lm_head.m == 4  # only the last position per sequence
    assert not any(op.name == "lm_head" for op in plan.prefill_ops)
    assert plan.gemm_queries().count(plan.lm_head) == 1


def test_decode_flops_much_smaller_than_prefill(tiny_model):
    spec = _spec(tiny_model, prompt=128, generate=16)
    prefill = _flops(spec.prefill_layer_spec())
    decode = _flops(spec.decode_layer_spec(spec.average_decode_kv_len))
    assert decode < prefill / 16


def test_tp_reduces_per_rank_flops_and_adds_comm(tiny_model, single_node_a100):
    single = _spec(tiny_model, tp=1)
    sharded = _spec(tiny_model, tp=4)
    kv_len = single.average_decode_kv_len
    assert _flops(sharded.decode_layer_spec(kv_len)) < _flops(single.decode_layer_spec(kv_len))
    model = InferencePerformanceModel(system=single_node_a100)
    assert len(model.plan(tiny_model, tensor_parallel=4).decode_comms) == 2  # two all-reduces per layer
    assert model.plan(tiny_model, tensor_parallel=1).decode_comms == ()


def test_phase_specs_carry_precision_and_tp(tiny_model):
    spec = _spec(tiny_model, batch=3, prompt=40, tp=2, precision=Precision.FP8)
    for layer in (spec.prefill_layer_spec(), spec.decode_layer_spec(50)):
        assert (layer.tensor_parallel, layer.precision) == (2, Precision.FP8)
        assert layer.use_kv_cache and not layer.sequence_parallel and not layer.with_dropout
        assert {op.precision for op in _ops(layer)} == {Precision.FP8}
    assert spec.prefill_layer_spec().shape == (3, 40, 40)
    assert spec.decode_layer_spec(50).shape == (3, 1, 50)


def test_decode_kv_len_is_at_least_one(tiny_model):
    assert _spec(tiny_model).decode_layer_spec(0).kv_len == 1
