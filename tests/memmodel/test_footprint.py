"""Tests for training and inference memory footprints."""

import pytest

from repro.errors import MemoryCapacityError
from repro.hardware.datatypes import Precision
from repro.memmodel.footprint import (
    check_training_fits,
    inference_memory_breakdown,
    kv_cache_bytes,
    model_weight_bytes,
    training_memory_breakdown,
)
from repro.models.zoo import get_model
from repro.parallelism.config import ParallelismConfig
from repro.units import GB


def test_kv_cache_formula_matches_paper(llama2_13b):
    """KV bytes = 2 * B * context * precision * layers * hidden for MHA models."""
    expected = 2 * 1 * 400 * 2 * llama2_13b.num_layers * llama2_13b.hidden_size
    assert kv_cache_bytes(llama2_13b, batch_size=1, context_len=400) == pytest.approx(expected)


def test_kv_cache_scales_linearly(llama2_13b):
    base = kv_cache_bytes(llama2_13b, 1, 400)
    assert kv_cache_bytes(llama2_13b, 16, 400) == pytest.approx(16 * base)
    assert kv_cache_bytes(llama2_13b, 1, 800) == pytest.approx(2 * base)
    assert kv_cache_bytes(llama2_13b, 1, 400, tensor_parallel=4) == pytest.approx(base / 4)
    assert kv_cache_bytes(llama2_13b, 1, 400, precision=Precision.FP8) == pytest.approx(base / 2)


def test_kv_cache_gqa_is_smaller():
    llama70 = get_model("Llama2-70B")
    gqa = kv_cache_bytes(llama70, 1, 400)
    # With 8 KV heads out of 64, the cache is 8x smaller than full MHA would be.
    full_equivalent = 2 * 1 * 400 * 2 * llama70.num_layers * llama70.hidden_size
    assert gqa == pytest.approx(full_equivalent / 8)


def test_model_weight_bytes_sharding(llama2_13b):
    full = model_weight_bytes(llama2_13b)
    assert full == pytest.approx(llama2_13b.num_parameters * 2, rel=1e-3)
    tp4 = model_weight_bytes(llama2_13b, tensor_parallel=4)
    assert tp4 < full / 3.5


def test_training_breakdown_components(gpt_175b):
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1)
    breakdown = training_memory_breakdown(gpt_175b, config, global_batch_size=64, strategy="full")
    # Parameters and gradients at 2 bytes each, optimizer at 12 bytes per parameter.
    assert breakdown.gradient_bytes == pytest.approx(breakdown.parameter_bytes)
    assert breakdown.optimizer_bytes == pytest.approx(6 * breakdown.parameter_bytes)
    assert breakdown.total_bytes == pytest.approx(
        breakdown.parameter_bytes + breakdown.gradient_bytes + breakdown.optimizer_bytes + breakdown.activation_bytes
    )
    assert breakdown.model_state_bytes < breakdown.total_bytes


def test_training_parameter_bytes_are_the_device_weights(gpt_175b):
    """The breakdown stores the weights the device holds, embedding included only without pipeline stages."""
    for pipeline_parallel in (1, 8):
        config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=pipeline_parallel)
        breakdown = training_memory_breakdown(gpt_175b, config, global_batch_size=64, precision=Precision.FP16)
        assert breakdown.parameter_bytes == config.parameters_per_device(gpt_175b) * 2


def test_training_breakdown_strategy_ordering(gpt_175b):
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1)
    totals = {
        strategy: training_memory_breakdown(gpt_175b, config, global_batch_size=64, strategy=strategy).total_bytes
        for strategy in ("none", "selective", "full")
    }
    assert totals["none"] > totals["selective"] > totals["full"]


def test_fig4_narrative_on_a100(gpt_175b):
    """No recomputation overflows an 80 GB A100; full recomputation fits (Table 1 runs exist)."""
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1)
    none = training_memory_breakdown(gpt_175b, config, global_batch_size=64, strategy="none")
    full = training_memory_breakdown(gpt_175b, config, global_batch_size=64, strategy="full")
    assert not none.fits(80 * GB)
    assert full.fits(80 * GB)


def test_sequence_parallel_reduces_activation_memory(gpt_175b):
    base = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1)
    sp = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1, sequence_parallel=True)
    plain = training_memory_breakdown(gpt_175b, base, global_batch_size=64, strategy="selective")
    sharded = training_memory_breakdown(gpt_175b, sp, global_batch_size=64, strategy="selective")
    assert sharded.activation_bytes < plain.activation_bytes
    assert sharded.parameter_bytes == pytest.approx(plain.parameter_bytes)


def test_in_flight_override(gpt_175b):
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1)
    default = training_memory_breakdown(gpt_175b, config, global_batch_size=64, strategy="none")
    single = training_memory_breakdown(
        gpt_175b, config, global_batch_size=64, strategy="none", in_flight_microbatches=1
    )
    assert default.activation_bytes == pytest.approx(8 * single.activation_bytes)


def test_check_training_fits_raises(gpt_175b):
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1)
    breakdown = training_memory_breakdown(gpt_175b, config, global_batch_size=64, strategy="none")
    with pytest.raises(MemoryCapacityError):
        check_training_fits(breakdown, 80 * GB, label="GPT-175B none")
    check_training_fits(breakdown, 1000 * GB)


def test_inference_breakdown(llama2_13b):
    breakdown = inference_memory_breakdown(llama2_13b, batch_size=1, context_len=400)
    assert breakdown.weight_bytes / GB == pytest.approx(26, rel=0.05)
    assert breakdown.kv_cache_bytes < breakdown.weight_bytes
    assert breakdown.total_bytes > breakdown.weight_bytes
    assert breakdown.fits(80 * GB)
    as_dict = breakdown.as_dict()
    assert set(as_dict) == {"weights", "kv_cache", "activations", "total"}


def test_inference_breakdown_batch_grows_kv_only(llama2_13b):
    small = inference_memory_breakdown(llama2_13b, batch_size=1, context_len=400)
    large = inference_memory_breakdown(llama2_13b, batch_size=16, context_len=400)
    assert large.weight_bytes == pytest.approx(small.weight_bytes)
    assert large.kv_cache_bytes == pytest.approx(16 * small.kv_cache_bytes)


def test_breakdown_as_dict_keys(gpt_175b):
    config = ParallelismConfig(tensor_parallel=8, pipeline_parallel=8, micro_batch_size=1)
    as_dict = training_memory_breakdown(gpt_175b, config, global_batch_size=64).as_dict()
    assert set(as_dict) == {"parameters", "gradients", "optimizer", "activations", "total"}
