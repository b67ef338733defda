"""Tests for the cross-scenario batch planner: bit-identity and fallbacks.

The planner's contract is that a ``SweepRunner`` with ``batch_planning=True``
(the default serial path) produces *exactly* the objects the one-at-a-time
reference loop produces -- same values bit for bit, same captured errors,
same raised error when capture is off, same stats -- while pricing a whole
generation of scenarios through one vectorized roofline call.
"""

import pytest

from repro.core.bottleneck import layer_gemms
from repro.errors import MemoryCapacityError, ReproError
from repro.hardware.datatypes import Precision
from repro.sweep import Scenario, SweepRunner, evaluate_scenario, expand_grid
from repro.sweep.batchplan import clear_plan_caches, evaluate_pending_batched, plan_scenario


def _run_both(scenarios, capture_errors=False):
    """Evaluate the same scenarios through the batched and reference paths."""
    batched = SweepRunner(batch_planning=True)
    reference = SweepRunner(batch_planning=False)
    batched_results = batched.run(scenarios, capture_errors=capture_errors)
    reference_results = reference.run(scenarios, capture_errors=capture_errors)
    return batched, batched_results, reference, reference_results


# ---------------------------------------------------------------------------
# Bit-identity across scenario kinds.
# ---------------------------------------------------------------------------


def test_decode_bottlenecks_grid_is_bit_identical(tiny_model):
    scenarios = [
        Scenario.decode_bottlenecks("A100", tiny_model, batch_size=combo["batch_size"], kv_len=combo["kv_len"])
        for combo in expand_grid(batch_size=[1, 2], kv_len=[1, 64, 200, 513])
    ]
    batched, batched_results, _, reference_results = _run_both(scenarios)
    assert batched.stats.batched_scenarios == len(scenarios)
    for ours, theirs in zip(batched_results, reference_results):
        assert ours.value == theirs.value  # exact float equality, entry by entry


def test_prefill_bottlenecks_is_bit_identical(tiny_model, tiny_swiglu_model):
    scenarios = [
        Scenario.prefill_bottlenecks("A100", tiny_model, batch_size=1, prompt_tokens=200),
        Scenario.prefill_bottlenecks("A100", tiny_swiglu_model, batch_size=4, prompt_tokens=128),
        Scenario.prefill_bottlenecks("H100", tiny_model, batch_size=2, prompt_tokens=64),
    ]
    batched, batched_results, _, reference_results = _run_both(scenarios)
    assert batched.stats.batched_scenarios == len(scenarios)
    for ours, theirs in zip(batched_results, reference_results):
        assert ours.value == theirs.value


def test_attention_bound_is_bit_identical(tiny_model):
    scenarios = [
        Scenario.attention_bound("A100", tiny_model, micro_batch=1, seq_len=seq_len)
        for seq_len in (128, 256)
    ]
    batched, batched_results, _, reference_results = _run_both(scenarios)
    assert batched.stats.batched_scenarios == len(scenarios)
    for ours, theirs in zip(batched_results, reference_results):
        assert ours.value == theirs.value


@pytest.mark.parametrize("decode_mode", ["average", "exact"])
def test_inference_is_bit_identical(decode_mode, tiny_model):
    scenarios = [
        Scenario.inference(
            system, tiny_model, batch_size=batch_size, generated_tokens=32, decode_mode=decode_mode
        )
        for system in ("A100", "A100x4")
        for batch_size in (1, 4)
    ]
    batched, batched_results, _, reference_results = _run_both(scenarios)
    assert batched.stats.batched_scenarios == len(scenarios)
    for ours, theirs in zip(batched_results, reference_results):
        assert ours.value == theirs.value


def test_mixed_kinds_interleave_batched_and_fallback(tiny_model):
    """Unbatchable kinds fall back to evaluate_scenario, in input order."""
    scenarios = [
        Scenario.decode_bottlenecks("A100", tiny_model, kv_len=100),
        Scenario.inference_memory(tiny_model, batch_size=2),  # no batchable pricing phase
        Scenario.inference(system="A100", model=tiny_model, generated_tokens=16),
        Scenario.training_memory(tiny_model, "2-2-1-1", global_batch_size=4),
    ]
    batched, batched_results, _, reference_results = _run_both(scenarios)
    assert batched.stats.batched_scenarios == 2  # the bottleneck table + inference
    assert batched.stats.evaluations == len(scenarios)
    for ours, theirs in zip(batched_results, reference_results):
        assert ours.value == theirs.value


# ---------------------------------------------------------------------------
# Error equivalence.
# ---------------------------------------------------------------------------


def test_plan_time_errors_are_captured_like_evaluation_errors(tiny_model):
    # Llama2-70B FP16 weights do not fit one A100: the admission check fires
    # at plan time in the batched path, at evaluation time in the reference.
    # The training corners fail their mapping: PP does not divide the 4
    # layers, DP does not divide the batch, the system has too few devices.
    infeasible = [Scenario.inference("A100", "Llama2-70B", tensor_parallel=1)] + [
        Scenario.training("A100x4", tiny_model, label, global_batch_size=8)
        for label in ("1-1-3-1", "3-1-1-1", "8-1-1-1")
    ]
    scenarios = infeasible + [Scenario.inference("A100", tiny_model, generated_tokens=16)]
    batched, batched_results, reference, reference_results = _run_both(scenarios, capture_errors=True)
    assert [r.error for r in batched_results] == [r.error for r in reference_results]
    assert all(r.error is not None for r in batched_results[:-1])
    assert batched_results[-1].value == reference_results[-1].value
    assert batched.stats.errors == reference.stats.errors == len(infeasible)
    # The planner captures the very error type the direct evaluation raises.
    outcomes = evaluate_pending_batched({scenario.cache_key(): scenario for scenario in infeasible})
    for scenario, outcome in zip(infeasible, outcomes):
        with pytest.raises(ReproError) as direct:
            evaluate_scenario(scenario)
        assert outcome.batched
        assert (type(outcome.error), str(outcome.error)) == (type(direct.value), str(direct.value))


def test_uncaptured_errors_raise_the_earliest_input_error(tiny_model):
    first_bad = Scenario.inference("A100", "Llama2-70B", tensor_parallel=1, prompt_tokens=100)
    good = Scenario.inference("A100", tiny_model, generated_tokens=16)
    second_bad = Scenario.inference("A100", "Llama2-70B", tensor_parallel=1, prompt_tokens=300)
    runner = SweepRunner(batch_planning=True)
    with pytest.raises(MemoryCapacityError):
        runner.run([first_bad, good, second_bad])
    assert runner.stats.evaluations == 3  # everything still evaluated and cached
    results = runner.run([first_bad, good, second_bad], capture_errors=True)
    assert runner.stats.evaluations == 3
    assert [r.from_cache for r in results] == [True, True, True]


# ---------------------------------------------------------------------------
# The planner's entry points.
# ---------------------------------------------------------------------------


def test_evaluate_pending_batched_preserves_input_order(tiny_model):
    scenarios = [
        Scenario.decode_bottlenecks("A100", tiny_model, kv_len=kv_len) for kv_len in (300, 100, 200)
    ]
    pending = {scenario.cache_key(): scenario for scenario in scenarios}
    outcomes = evaluate_pending_batched(pending)
    assert [outcome.key for outcome in outcomes] == list(pending)
    assert all(outcome.batched for outcome in outcomes)
    assert all(outcome.error is None for outcome in outcomes)


def test_plan_scenario_returns_none_for_unbatchable_kinds(tiny_model):
    assert plan_scenario(Scenario.inference_memory(tiny_model)) is None
    assert plan_scenario(Scenario.training_memory(tiny_model, "2-2-1-1", global_batch_size=4)) is None


def test_single_pending_scenario_skips_the_planner(tiny_model):
    runner = SweepRunner(batch_planning=True)
    results = runner.run([Scenario.decode_bottlenecks("A100", tiny_model)])
    assert results[0].ok
    assert runner.stats.batched_scenarios == 0  # one scenario: the direct path


def test_batch_planning_off_never_batches(tiny_model):
    runner = SweepRunner(batch_planning=False)
    runner.run([Scenario.decode_bottlenecks("A100", tiny_model, kv_len=kv) for kv in (50, 60)])
    assert runner.stats.batched_scenarios == 0
    assert runner.stats.evaluations == 2


# ---------------------------------------------------------------------------
# Layer templates of the bottleneck kinds.
# ---------------------------------------------------------------------------

_KV_DEPENDENT = ("attention_scores", "attention_context")


def test_decode_plans_share_token_gemms_across_kv_lengths(tiny_model, tiny_swiglu_model):
    clear_plan_caches()
    for model in (tiny_model, tiny_swiglu_model):  # MHA/GELU and GQA/SwiGLU
        kv_lens = (1, 2, 7, 64, 200, 513)
        plans = [
            plan_scenario(Scenario.decode_bottlenecks("A100", model, batch_size=2, kv_len=kv, tensor_parallel=2))
            for kv in kv_lens
        ]
        first = plans[0]
        for plan, kv_len in zip(plans, kv_lens):
            assert plan.gemms == layer_gemms(model, 2, 1, kv_len, 2, Precision.FP16, True)
            for gemm, first_gemm in zip(plan.gemms, first.gemms):
                if gemm.name in _KV_DEPENDENT:
                    assert (gemm is first_gemm) == (kv_len == kv_lens[0])
                else:
                    assert gemm is first_gemm
        # Only the scores and context GEMMs are built per KV length.
        built = {id(gemm) for plan in plans for gemm in plan.gemms}
        assert len(built) == len(first.gemms) + len(_KV_DEPENDENT) * (len(kv_lens) - 1)


def test_clear_plan_caches_drops_the_planner_templates(tiny_model):
    scenario = Scenario.prefill_bottlenecks("A100", tiny_model, prompt_tokens=64)
    clear_plan_caches()
    first = plan_scenario(scenario)
    assert all(a is b for a, b in zip(plan_scenario(scenario).gemms, first.gemms))
    clear_plan_caches()
    cold = plan_scenario(scenario)
    assert cold.gemms == first.gemms
    assert not any(a is b for a, b in zip(cold.gemms, first.gemms))
