"""Training batched pricing: bit-identity, disk-store round trips, stage timings."""

import pytest

from repro.caching import Memo
from repro.core.engine import PerformancePredictionEngine
from repro.hardware.cluster import build_system
from repro.hardware.datatypes import Precision
from repro.perf.kernels import DeviceKernelModel
from repro.sweep import (
    BatchTimings,
    Scenario,
    SweepRunner,
    batchplan,
    clear_engine_cache,
    engine_for,
    evaluate_pending_batched,
)


def _run_both(scenarios, capture_errors=False, **runner_kwargs):
    clear_engine_cache()
    batched = SweepRunner(batch_planning=True, **runner_kwargs)
    batched_results = batched.run(scenarios, capture_errors=capture_errors)
    clear_engine_cache()
    reference = SweepRunner(batch_planning=False)
    reference_results = reference.run(scenarios, capture_errors=capture_errors)
    return batched, batched_results, reference, reference_results


# ---------------------------------------------------------------------------
# Training bit-identity: batched collectives + GEMMs vs the scalar loop.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("precision", [Precision.FP16, Precision.FP8])
def test_training_parallelism_grid_is_bit_identical(precision, tiny_model):
    # DP/TP/PP/SP combos: pure DP, pure TP, TP+SP, PP, and a mixed mapping.
    labels = ["1-1-1-1", "2-1-1-1", "1-2-1-1", "1-2-1-2", "1-1-2-1", "2-2-2-1"]
    scenarios = [
        Scenario.training("A100x8", tiny_model, label, global_batch_size=16, precision=precision)
        for label in labels
    ]
    batched, batched_results, _, reference_results = _run_both(scenarios)
    assert batched.stats.batched_scenarios == len(scenarios)
    for ours, theirs in zip(batched_results, reference_results):
        assert ours.value.to_dict() == theirs.value.to_dict()  # exact float equality


def test_training_recompute_and_seq_len_are_bit_identical(tiny_model):
    scenarios = [
        Scenario.training(
            "A100x4", tiny_model, "2-2-1-1", global_batch_size=8, seq_len=seq_len, recompute=recompute
        )
        for seq_len in (128, 256)
        for recompute in ("none", "selective", "full")
    ]
    _, batched_results, _, reference_results = _run_both(scenarios)
    for ours, theirs in zip(batched_results, reference_results):
        assert ours.value.to_dict() == theirs.value.to_dict()


def test_training_mixed_with_other_kinds_is_bit_identical(tiny_model):
    scenarios = [
        Scenario.training("A100x4", tiny_model, "2-2-1-1", global_batch_size=8),
        Scenario.decode_bottlenecks("A100", tiny_model, kv_len=100),
        Scenario.inference_memory(tiny_model, batch_size=2),  # fallback kind
        Scenario.training("A100x4", tiny_model, "4-1-1-1", global_batch_size=8),
    ]
    batched, batched_results, _, reference_results = _run_both(scenarios)
    assert batched.stats.batched_scenarios == 3  # both trainings + the table
    for ours, theirs in zip(batched_results, reference_results):
        if hasattr(ours.value, "to_dict"):
            assert ours.value.to_dict() == theirs.value.to_dict()
        else:
            assert ours.value == theirs.value


def test_training_plans_share_layer_graphs_until_cold_reset(tiny_model):
    # Same layer shape and TP scope; only DP/PP and recompute differ.
    scenarios = [
        Scenario.training("A100x8", tiny_model, label, global_batch_size=16, recompute=recompute)
        for label, recompute in (("4-2-1-1", "selective"), ("1-2-4-1", "selective"), ("2-2-2-1", "full"))
    ]

    def plan(scenario):
        return engine_for(scenario.system).training_model.plan(
            scenario.model,
            scenario.parallelism,
            global_batch_size=scenario.global_batch_size,
            recompute=scenario.recompute,
        )

    clear_engine_cache()
    first, *others = [plan(scenario) for scenario in scenarios]
    for other in others:
        assert other.forward_ops is first.forward_ops
        assert other.backward_ops is first.backward_ops
        assert other.tp_comms is first.tp_comms
    clear_engine_cache()
    cold = plan(scenarios[0])
    assert cold.forward_ops is not first.forward_ops
    assert cold.forward_ops == first.forward_ops


def test_engine_templates_are_dropped_with_the_engines(tiny_model):
    def plan():
        engine = engine_for(build_system("A100", num_devices=8))
        return engine.inference_model.plan(tiny_model, batch_size=2, prompt_tokens=32, tensor_parallel=2)

    clear_engine_cache()
    first = plan()
    again = plan()
    assert again.prefill_ops is first.prefill_ops
    assert again.decode_ops is first.decode_ops
    assert again.lm_head is first.lm_head
    clear_engine_cache()
    cold = plan()
    assert cold.prefill_ops is not first.prefill_ops
    assert cold.prefill_ops == first.prefill_ops


def test_training_prices_each_layer_shape_once(tiny_model, monkeypatch):
    # DP * TP * PP = 8 devices at a fixed global batch: every split of one TP
    # degree has the same layer shape and the same per-layer repeat count.
    scenarios = [
        Scenario.training(
            "A100x8", tiny_model, f"{8 // (tp * pp)}-{tp}-{pp}-1", global_batch_size=16, recompute=recompute
        )
        for tp in (1, 2)
        for pp in (1, 2, 4)
        for recompute in ("selective", "full")
    ]
    evaluations = []
    evaluate = DeviceKernelModel.evaluate
    monkeypatch.setattr(
        DeviceKernelModel, "evaluate", lambda model, op: evaluations.append(op) or evaluate(model, op)
    )
    clear_engine_cache()
    results = SweepRunner(batch_planning=True).run(scenarios)
    plans = {}
    for scenario in scenarios:
        plan = engine_for(scenario.system).training_model.plan(
            scenario.model, scenario.parallelism, global_batch_size=16, recompute=scenario.recompute
        )
        plans[plan.forward_ops] = len(plan.forward_ops) + len(plan.backward_ops)
    assert len(plans) == 2  # one layer shape per TP degree
    assert 0 < len(evaluations) <= sum(plans.values())
    for scenario, result in zip(scenarios, results):
        direct = PerformancePredictionEngine(scenario.system).training_model.predict(
            scenario.model, scenario.parallelism, global_batch_size=16, recompute=scenario.recompute
        )
        assert result.value.to_dict() == direct.to_dict()


def test_layer_prices_are_bounded_and_dropped_with_the_engines(tiny_model):
    system = build_system("A100", num_devices=8)
    parallelism = Scenario.training(system, tiny_model, "2-2-2-1", global_batch_size=16).parallelism
    clear_engine_cache()
    training_model = engine_for(system).training_model
    assert isinstance(training_model._layer_times, Memo)
    assert len(training_model._layer_times) == 0
    first = training_model.predict(tiny_model, parallelism, global_batch_size=16)
    assert len(training_model._layer_times) == 2  # the forward and the backward layer
    again = training_model.predict(tiny_model, parallelism, global_batch_size=16)
    assert again.kernel_breakdown == first.kernel_breakdown
    assert all(a is b for a, b in zip(again.kernel_breakdown, first.kernel_breakdown))
    clear_engine_cache()
    cold = engine_for(system).training_model
    assert cold is not training_model
    assert len(cold._layer_times) == 0


# ---------------------------------------------------------------------------
# A mixed batched generation through the disk store.
# ---------------------------------------------------------------------------


def test_batched_generation_captures_errors_and_writes_disk_store(tiny_model, tmp_path):
    scenarios = [
        Scenario.training("A100x4", tiny_model, "2-2-1-1", global_batch_size=8),
        Scenario.inference("A100", "Llama2-70B", tensor_parallel=1),  # infeasible
        Scenario.decode_bottlenecks("A100", tiny_model, kv_len=75),
    ]
    clear_engine_cache()
    runner = SweepRunner(batch_planning=True, disk_cache=tmp_path, capture_errors=True)
    results = runner.run(scenarios)
    assert results[0].ok and results[2].ok
    assert results[1].error is not None
    assert runner.stats.errors == 1
    assert runner.stats.batched_scenarios == len(scenarios)
    assert runner.disk_cache.count() == len(scenarios)
    # A fresh runner on the same store re-prices nothing.
    warm = SweepRunner(disk_cache=tmp_path, capture_errors=True)
    warm_results = warm.run(scenarios)
    assert warm.stats.evaluations == 0
    assert warm.stats.disk_hits == len(scenarios)
    assert warm_results[1].error == results[1].error
    for ours, theirs in zip(warm_results, results):
        if hasattr(ours.value, "to_dict"):
            assert ours.value.to_dict() == theirs.value.to_dict()
        else:
            assert ours.value == theirs.value


# ---------------------------------------------------------------------------
# Stage timings.
# ---------------------------------------------------------------------------


def test_batch_timings_accumulate(tiny_model):
    scenarios = [
        Scenario.decode_bottlenecks("A100", tiny_model, kv_len=kv_len) for kv_len in (30, 60)
    ]
    pending = {scenario.cache_key(): scenario for scenario in scenarios}
    timings = BatchTimings()
    evaluate_pending_batched(pending, timings=timings)
    first_plan = timings.plan_seconds
    assert first_plan > 0.0
    evaluate_pending_batched(pending, timings=timings)
    assert timings.plan_seconds > first_plan


def test_runner_stats_surface_stage_timings(tiny_model):
    runner = SweepRunner(batch_planning=True)
    runner.run([Scenario.decode_bottlenecks("A100", tiny_model, kv_len=kv) for kv in (10, 20, 30)])
    snapshot = runner.stats.snapshot()
    assert snapshot["keyhash_seconds"] > 0.0
    assert snapshot["plan_seconds"] > 0.0
    assert snapshot["price_seconds"] > 0.0
    assert snapshot["scatter_seconds"] > 0.0


class _FakeClock:
    """A ``perf_counter`` stand-in that advances one millisecond per reading."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 0.001
        return self.now


def test_callback_time_is_record_not_scatter(tiny_model, monkeypatch):
    clock = _FakeClock()
    monkeypatch.setattr(batchplan, "_time", clock)
    scenarios = [Scenario.decode_bottlenecks("A100", tiny_model, kv_len=kv) for kv in range(10, 20)]
    calls = []

    def slow_callback(outcome_or_result):
        calls.append(outcome_or_result)
        clock.now += 10.0  # a ten-second disk write, say

    timings = BatchTimings()
    evaluate_pending_batched({s.cache_key(): s for s in scenarios}, timings=timings, on_outcome=slow_callback)
    assert len(calls) == len(scenarios)
    assert timings.record_seconds >= 10.0 * len(scenarios)
    assert timings.scatter_seconds < 1.0
    # Through the runner: its recording and the caller's on_result are record time.
    runner = SweepRunner(batch_planning=True)
    runner.run(scenarios, on_result=slow_callback)
    assert len(calls) == 2 * len(scenarios)
    stats = runner.stats.snapshot()
    assert stats["record_seconds"] >= 10.0 * len(scenarios)
    assert stats["scatter_seconds"] < 1.0
