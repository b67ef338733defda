"""Tests for the step-cost layer (prefill / decode steps over mixed batches)."""

import pytest

from repro.core.stepcost import StepCost, StepCostModel, ZERO_STEP
from repro.hardware.cluster import build_system
from repro.hardware.datatypes import Precision
from repro.models.zoo import get_model


@pytest.fixture(scope="module")
def system():
    return build_system("A100", num_devices=8, intra_node="NVLink3", inter_node="HDR-IB")


@pytest.fixture(scope="module")
def model():
    return get_model("Llama2-7B")


@pytest.fixture(scope="module")
def step_cost(system):
    return StepCostModel(system=system)


def test_empty_steps_are_free(step_cost, model):
    assert step_cost.prefill_step(model, []) is ZERO_STEP
    assert step_cost.decode_step(model, []) is ZERO_STEP
    assert ZERO_STEP.total_time == 0.0
    assert ZERO_STEP.is_idle


def test_step_cost_totals(step_cost, model):
    cost = step_cost.decode_step(model, [100, 200])
    assert cost.total_time == cost.device_time + cost.communication_time
    assert cost.num_requests == 2
    assert cost.tokens == 2
    assert not cost.is_idle
    assert cost.device_time > 0
    assert cost.compute_bound_time + cost.memory_bound_time <= cost.device_time


def test_prefill_step_grows_with_prompt_length(step_cost, model):
    short = step_cost.prefill_step(model, [64])
    long = step_cost.prefill_step(model, [512])
    assert long.total_time > short.total_time
    assert short.tokens == 64 and long.tokens == 512


def test_decode_step_grows_with_kv_length(step_cost, model):
    near = step_cost.decode_step(model, [64] * 4)
    far = step_cost.decode_step(model, [4096] * 4)
    assert far.total_time > near.total_time


def test_decode_step_sublinear_in_batch(step_cost, model):
    """Batching decodes shares the weight streams: 8 together << 8 alone."""
    single = step_cost.decode_step(model, [256])
    batched = step_cost.decode_step(model, [256] * 8)
    assert batched.total_time < 8 * single.total_time
    assert batched.total_time > single.total_time


def test_mixed_kv_between_uniform_bounds(step_cost, model):
    mixed = step_cost.decode_step(model, [100, 200, 300, 400])
    low = step_cost.decode_step(model, [100] * 4)
    high = step_cost.decode_step(model, [400] * 4)
    assert low.total_time < mixed.total_time < high.total_time


def test_decode_step_order_invariant(step_cost, model):
    forward = step_cost.decode_step(model, [100, 200, 300])
    backward = step_cost.decode_step(model, [300, 200, 100])
    assert forward.total_time == backward.total_time


def test_tensor_parallel_adds_communication(step_cost, model):
    alone = step_cost.decode_step(model, [200] * 4, tensor_parallel=1)
    sharded = step_cost.decode_step(model, [200] * 4, tensor_parallel=4)
    assert alone.communication_time == 0.0
    assert sharded.communication_time > 0.0
    # Decode is memory bound: sharding the weights cuts the device time.
    assert sharded.device_time < alone.device_time


def test_lm_head_toggle(step_cost, model):
    with_head = step_cost.decode_step(model, [128] * 2, include_lm_head=True)
    without = step_cost.decode_step(model, [128] * 2, include_lm_head=False)
    assert with_head.device_time > without.device_time


def test_precision_shrinks_traffic(step_cost, model):
    fp16 = step_cost.decode_step(model, [256] * 4, precision=Precision.FP16)
    fp8 = step_cost.decode_step(model, [256] * 4, precision=Precision.FP8)
    assert fp8.device_time < fp16.device_time


def test_prefill_matches_single_request_phase_scale(step_cost, model, system):
    """A one-request prefill step tracks the single-request prefill report."""
    from repro.core.inference import InferencePerformanceModel

    predictor = InferencePerformanceModel(system=system, check_memory=False)
    report = predictor.predict(model, batch_size=1, prompt_tokens=256, generated_tokens=1)
    step = step_cost.prefill_step(model, [256])
    assert step.total_time == pytest.approx(report.prefill.total_time, rel=0.01)


def test_decode_matches_single_request_step(step_cost, model, system):
    """A one-request decode step equals one step of the exact decode phase."""
    from repro.core.inference import InferencePerformanceModel

    predictor = InferencePerformanceModel(system=system, check_memory=False)
    # One generated token at KV length = prompt: exactly one decode step.
    report = predictor.predict(
        model, batch_size=1, prompt_tokens=300, generated_tokens=1, decode_mode="exact"
    )
    step = step_cost.decode_step(model, [300])
    assert step.total_time == pytest.approx(report.decode.total_time, rel=0.01)


def test_step_cost_is_deterministic(system, model):
    a = StepCostModel(system=system).decode_step(model, [123, 456])
    b = StepCostModel(system=system).decode_step(model, [123, 456])
    assert a == b


def test_tp_scope_selection(step_cost, system):
    assert step_cost.tp_scope(1) == "intra_node"
    assert step_cost.tp_scope(system.devices_per_node) == "intra_node"
    assert step_cost.tp_scope(system.devices_per_node + 1) == "inter_node"


def test_step_cost_dataclass_is_value_like():
    cost = StepCost(1.0, 0.5, 0.2, 0.8, num_requests=2, tokens=2)
    assert cost.total_time == 1.5
    assert cost == StepCost(1.0, 0.5, 0.2, 0.8, num_requests=2, tokens=2)


# -- epoch-fused decode pricing ----------------------------------------------------------

def _assert_run_matches_steps(step_cost, model, kv_lens, num_steps, **kwargs):
    """decode_run must equal num_steps sequential decode_step calls exactly."""
    run = step_cost.decode_run(model, kv_lens, num_steps, **kwargs)
    expected = [
        step_cost.decode_step(model, [kv + step for kv in kv_lens], **kwargs)
        for step in range(num_steps)
    ]
    assert run.num_steps == num_steps
    assert run.num_requests == len(kv_lens)
    assert run.step_costs() == expected
    for step, cost in enumerate(expected):
        assert float(run.device_times[step]) == cost.device_time
        assert run.communication_time == cost.communication_time
        assert float(run.compute_bound_times[step]) == cost.compute_bound_time
        assert float(run.memory_bound_times[step]) == cost.memory_bound_time
        assert float(run.total_times[step]) == cost.total_time


def test_decode_run_matches_sequential_decode_steps(step_cost, model):
    _assert_run_matches_steps(step_cost, model, [100, 237, 100, 64], 17)


def test_decode_run_matches_decode_steps_single_request(step_cost, model):
    _assert_run_matches_steps(step_cost, model, [321], 5)


def test_decode_run_matches_decode_steps_with_tensor_parallel(step_cost, model):
    _assert_run_matches_steps(step_cost, model, [64, 640], 9, tensor_parallel=4)


def test_decode_run_matches_decode_steps_without_lm_head(step_cost, model):
    _assert_run_matches_steps(step_cost, model, [80, 81, 82], 7, include_lm_head=False)


def test_decode_run_matches_decode_steps_fp8(step_cost, model):
    _assert_run_matches_steps(step_cost, model, [150, 90], 6, precision=Precision.FP8)


def test_decode_run_agrees_after_scalar_warmup(system, model):
    # Order of first evaluation (batched table fill vs scalar memo) must not
    # change the numbers: warm one model scalar-first, one fused-first.
    scalar_first = StepCostModel(system=system)
    for step in range(4):
        scalar_first.decode_step(model, [200 + step, 50 + step])
    fused_first = StepCostModel(system=system)
    run_a = scalar_first.decode_run(model, [200, 50], 4)
    run_b = fused_first.decode_run(model, [200, 50], 4)
    assert run_a.step_costs() == run_b.step_costs()


def test_decode_run_empty_inputs(step_cost, model):
    assert step_cost.decode_run(model, [], 5).num_steps == 0
    assert step_cost.decode_run(model, [100], 0).num_steps == 0
    assert step_cost.decode_run(model, [100], 0).num_requests == 1


def test_step_cost_cache_counters_grow(system, model):
    probe = StepCostModel(system=system)
    assert probe.cache_hits == 0 and probe.cache_misses == 0
    probe.decode_run(model, [100, 200], 8)
    first_misses = probe.cache_misses
    assert first_misses > 0
    probe.decode_run(model, [100, 200], 8)
    assert probe.cache_misses == first_misses  # identical epoch: all hits
    assert probe.cache_hits > 0


def test_templates_live_with_their_step_cost_model(system, model):
    fresh = StepCostModel(system=system)
    assert len(fresh._templates) == 0
    fresh.prefill_step(model, [64, 32])
    template = fresh.template(model, 1, Precision.FP16)
    assert len(fresh._templates) == 1
    # Steps of one model share the template and its operator groups.
    assert fresh._token_ops(model, 96, 1, Precision.FP16) is template.step_token_ops(96)
    assert len(StepCostModel(system=system)._templates) == 0
