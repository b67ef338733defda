"""Training batched pricing and process-sharded planning: bit-identity."""

import pytest

from repro.hardware.datatypes import Precision
from repro.sweep import (
    BatchTimings,
    Scenario,
    SweepRunner,
    clear_engine_cache,
    engine_for,
    evaluate_pending_batched,
    evaluate_shard,
)
from repro.sweep.runner import _split_shards


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


# ---------------------------------------------------------------------------
# Process-sharded planning.
# ---------------------------------------------------------------------------


def test_process_sharded_matches_serial_batched(tiny_model):
    scenarios = [
        Scenario.training("A100x4", tiny_model, label, global_batch_size=8)
        for label in ("1-1-1-1", "2-1-1-1", "2-2-1-1", "4-1-1-1")
    ] + [
        Scenario.decode_bottlenecks("A100", tiny_model, kv_len=kv_len)
        for kv_len in (50, 100, 150)
    ]
    sharded, sharded_results, _, _ = _run_both(scenarios, executor="process", max_workers=2)
    clear_engine_cache()
    serial = SweepRunner(batch_planning=True)
    serial_results = serial.run(scenarios)
    assert sharded.stats.batched_scenarios == len(scenarios)
    assert sharded.stats.evaluations == len(scenarios)
    for ours, theirs in zip(sharded_results, serial_results):
        if hasattr(ours.value, "to_dict"):
            assert ours.value.to_dict() == theirs.value.to_dict()
        else:
            assert ours.value == theirs.value


def test_process_sharded_captures_errors_and_writes_disk_store(tiny_model, tmp_path):
    scenarios = [
        Scenario.training("A100x4", tiny_model, "2-2-1-1", global_batch_size=8),
        Scenario.inference("A100", "Llama2-70B", tensor_parallel=1),  # infeasible
        Scenario.decode_bottlenecks("A100", tiny_model, kv_len=75),
    ]
    clear_engine_cache()
    runner = SweepRunner(
        executor="process", max_workers=2, batch_planning=True, disk_cache=tmp_path, capture_errors=True
    )
    results = runner.run(scenarios)
    assert results[0].ok and results[2].ok
    assert results[1].error is not None
    assert runner.stats.errors == 1
    assert runner.disk_cache.count() == len(scenarios)
    # A fresh runner on the same store re-prices nothing.
    warm = SweepRunner(disk_cache=tmp_path, capture_errors=True)
    warm_results = warm.run(scenarios)
    assert warm.stats.evaluations == 0
    assert warm.stats.disk_hits == len(scenarios)
    for ours, theirs in zip(warm_results, results):
        if hasattr(ours.value, "to_dict"):
            assert ours.value.to_dict() == theirs.value.to_dict()
        else:
            assert ours.value == theirs.value


def test_evaluate_shard_returns_outcomes_and_timings(tiny_model):
    scenarios = [
        Scenario.decode_bottlenecks("A100", tiny_model, kv_len=kv_len) for kv_len in (10, 20)
    ]
    items = [(scenario.cache_key(), scenario) for scenario in scenarios]
    outcomes, timings = evaluate_shard(items)
    assert [outcome.key for outcome in outcomes] == [key for key, _ in items]
    assert all(outcome.batched for outcome in outcomes)
    assert timings.plan_seconds >= 0.0
    assert timings.price_seconds >= 0.0
    assert timings.scatter_seconds >= 0.0


def test_split_shards_contiguous_and_balanced():
    items = [(str(index), None) for index in range(7)]
    shards = _split_shards(items, 3)
    assert [len(shard) for shard in shards] == [3, 2, 2]
    assert [pair for shard in shards for pair in shard] == items
    assert _split_shards(items, 10) == [[item] for item in items]
    assert _split_shards(items, 1) == [items]


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
