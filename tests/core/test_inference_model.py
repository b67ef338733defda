"""Tests for the end-to-end inference performance model."""

import pytest

from repro.core.engine import PerformancePredictionEngine
from repro.core.inference import InferencePerformanceModel
from repro.errors import ConfigurationError, MemoryCapacityError
from repro.hardware.datatypes import Precision
from repro.models.zoo import get_model


@pytest.fixture
def a100_inference(single_node_a100):
    return InferencePerformanceModel(system=single_node_a100)


@pytest.fixture
def h100_inference(h100_node):
    return InferencePerformanceModel(system=h100_node)


def test_report_structure(a100_inference, llama2_13b):
    report = a100_inference.predict(llama2_13b, tensor_parallel=1)
    assert report.total_latency > 0
    assert report.total_latency == pytest.approx(report.prefill.total_time + report.decode.total_time)
    assert report.prefill.kernel_breakdown and report.decode.kernel_breakdown
    assert report.memory.weight_bytes > 0
    assert report.tensor_parallel == 1
    assert report.total_latency_ms == pytest.approx(report.total_latency * 1000)


def test_llama13b_single_a100_matches_nvidia_within_band(a100_inference, llama2_13b):
    """Table 2: Llama2-13B on one A100 is 3884 ms; the prediction lands within 13%."""
    report = a100_inference.predict(llama2_13b, batch_size=1, prompt_tokens=200, generated_tokens=200, tensor_parallel=1)
    assert report.total_latency_ms == pytest.approx(3884, rel=0.13)


def test_decode_dominates_latency(a100_inference, llama2_13b):
    report = a100_inference.predict(llama2_13b, tensor_parallel=1)
    assert report.decode.total_time > 10 * report.prefill.total_time


def test_decode_is_memory_bound_prefill_can_be_compute_bound(a100_inference, llama2_13b):
    report = a100_inference.predict(llama2_13b, tensor_parallel=1)
    assert report.decode.memory_bound_time > report.decode.compute_bound_time
    assert report.prefill.compute_bound_fraction > 0.5  # A100 prefill is mostly compute bound


def test_h100_prefill_is_memory_bound(h100_inference, llama2_13b):
    report = h100_inference.predict(llama2_13b, tensor_parallel=1)
    assert report.prefill.compute_bound_fraction < 0.2


def test_h100_faster_than_a100(a100_inference, h100_inference, llama2_13b):
    a100 = a100_inference.predict(llama2_13b, tensor_parallel=1).total_latency
    h100 = h100_inference.predict(llama2_13b, tensor_parallel=1).total_latency
    assert h100 < a100
    # The gain tracks the DRAM bandwidth ratio (1.935 -> 3.35 TB/s), not the compute ratio.
    assert a100 / h100 < 2.2


def test_inference_scales_poorly_with_gpus(a100_inference, llama2_13b):
    """Strong scaling from 1 to 8 GPUs is far from linear (paper Section 4.3)."""
    one = a100_inference.predict(llama2_13b, tensor_parallel=1).total_latency
    eight = a100_inference.predict(llama2_13b, tensor_parallel=8).total_latency
    assert eight < one
    assert one / eight < 4.0


def test_communication_grows_with_tensor_parallelism(a100_inference, llama2_13b):
    two = a100_inference.predict(llama2_13b, tensor_parallel=2)
    eight = a100_inference.predict(llama2_13b, tensor_parallel=8)
    assert eight.communication_time > two.communication_time
    assert two.communication_time > 0


def test_eight_gpu_communication_exceeds_memory_time(a100_inference, llama2_13b):
    """Paper Section 6.2: at 8 GPUs the communication time is comparable to
    (roughly 1.6x) the memory time for Llama2-13B."""
    report = a100_inference.predict(llama2_13b, tensor_parallel=8)
    ratio = report.decode.communication_time / report.decode.device_time
    assert 0.8 < ratio < 2.5


def test_batch_size_increases_throughput_with_modest_latency_growth(a100_inference, llama2_13b):
    single = a100_inference.predict(llama2_13b, batch_size=1, tensor_parallel=1)
    batched = a100_inference.predict(llama2_13b, batch_size=16, tensor_parallel=1)
    assert batched.total_latency < 3 * single.total_latency
    assert batched.throughput_tokens_per_second() > 5 * single.throughput_tokens_per_second()


def test_generated_tokens_scale_decode_time(a100_inference, llama2_13b):
    short = a100_inference.predict(llama2_13b, generated_tokens=100, tensor_parallel=1)
    long = a100_inference.predict(llama2_13b, generated_tokens=400, tensor_parallel=1)
    assert long.decode.total_time > 3.5 * short.decode.total_time
    assert long.time_per_output_token == pytest.approx(short.time_per_output_token, rel=0.25)


def test_memory_capacity_check(a100_inference):
    llama70 = get_model("Llama2-70B")
    with pytest.raises(MemoryCapacityError):
        a100_inference.predict(llama70, tensor_parallel=1)
    report = a100_inference.predict(llama70, tensor_parallel=2)
    assert report.total_latency > 0


def test_memory_check_can_be_disabled(single_node_a100):
    model = InferencePerformanceModel(system=single_node_a100, check_memory=False)
    report = model.predict(get_model("Llama2-70B"), tensor_parallel=1)
    assert report.total_latency > 0


def test_fp8_reduces_latency(h100_inference, llama2_13b):
    fp16 = h100_inference.predict(llama2_13b, tensor_parallel=1, precision=Precision.FP16)
    fp8 = h100_inference.predict(llama2_13b, tensor_parallel=1, precision=Precision.FP8)
    assert fp8.total_latency < fp16.total_latency * 0.7


def test_breakdown_dict(a100_inference, llama2_13b):
    report = a100_inference.predict(llama2_13b, tensor_parallel=2)
    breakdown = report.breakdown()
    assert breakdown["total"] == pytest.approx(report.total_latency)
    assert breakdown["memory"] + breakdown["communication"] == pytest.approx(report.total_latency)


# -- exact decode pricing -------------------------------------------------------------


def test_exact_decode_equals_average_for_one_token(a100_inference, llama2_13b):
    """With one generated token the exact and average KV lengths coincide exactly."""
    average = a100_inference.predict(llama2_13b, generated_tokens=1, tensor_parallel=1)
    exact = a100_inference.predict(llama2_13b, generated_tokens=1, tensor_parallel=1, decode_mode="exact")
    assert exact == average


def test_exact_decode_close_to_average_for_long_generation(a100_inference, llama2_13b):
    """Per-token attention cost is near-linear in KV length, so the mid-point closed form tracks the exact sum."""
    average = a100_inference.predict(llama2_13b, generated_tokens=200, tensor_parallel=1)
    exact = a100_inference.predict(llama2_13b, generated_tokens=200, tensor_parallel=1, decode_mode="exact")
    assert exact.decode.total_time == pytest.approx(average.decode.total_time, rel=0.02)
    assert exact.decode.total_time != average.decode.total_time  # genuinely different pricing
    assert exact.prefill == average.prefill  # prefill is untouched by the decode mode


def test_exact_decode_breakdown_is_consistent(a100_inference, llama2_13b):
    report = a100_inference.predict(llama2_13b, generated_tokens=64, tensor_parallel=1, decode_mode="exact")
    decode = report.decode
    assert sum(entry.total_time for entry in decode.kernel_breakdown) == pytest.approx(decode.device_time)
    assert decode.memory_bound_time > decode.compute_bound_time  # decode stays memory bound
    names = {entry.name for entry in decode.kernel_breakdown}
    assert {"attention_scores", "attention_context", "lm_head"}.issubset(names)


def test_exact_plan_holds_one_decode_step_per_token(a100_inference, llama2_13b):
    def scores_kv_len(ops):
        (scores,) = [op for op in ops if op.name == "attention_scores"]
        return scores.n

    exact = a100_inference.plan(llama2_13b, prompt_tokens=10, generated_tokens=4, decode_mode="exact")
    assert exact.decode_ops is None
    assert [scores_kv_len(step) for step in exact.decode_steps] == [10, 11, 12, 13]
    average = a100_inference.plan(llama2_13b, prompt_tokens=10, generated_tokens=4)
    assert average.decode_steps is None
    assert scores_kv_len(average.decode_ops) == 10 + (4 - 1) // 2 == 11  # the cache's mid-point


def test_exact_decode_with_zero_generated_tokens(a100_inference, llama2_13b):
    report = a100_inference.predict(llama2_13b, generated_tokens=0, tensor_parallel=1, decode_mode="exact")
    assert report.decode.total_time == 0.0
    assert report.decode.kernel_breakdown == []


def test_decode_mode_model_default(single_node_a100, a100_inference, llama2_13b):
    """Without a decode_mode the model, and the engine over it, price the average closed form."""
    average = a100_inference.predict(llama2_13b, generated_tokens=32, tensor_parallel=1, decode_mode="average")
    assert a100_inference.predict(llama2_13b, generated_tokens=32, tensor_parallel=1) == average
    assert PerformancePredictionEngine(single_node_a100).predict_inference(llama2_13b, generated_tokens=32) == average
    exact = a100_inference.predict(llama2_13b, generated_tokens=32, tensor_parallel=1, decode_mode="exact")
    assert exact != average


def test_invalid_decode_mode_rejected(a100_inference, llama2_13b):
    with pytest.raises(ConfigurationError):
        a100_inference.predict(llama2_13b, decode_mode="median")
