"""Tests for the frozen scenario spec and its canonical cache key."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.accelerator import get_accelerator
from repro.hardware.cluster import build_system
from repro.parallelism.config import ParallelismConfig
from repro.sweep import Scenario, ScenarioKind, SweepRunner, evaluate_scenario
from repro.core.reports import InferenceReport, TrainingReport


@pytest.fixture
def parallelism():
    return ParallelismConfig(data_parallel=2, tensor_parallel=4, micro_batch_size=1)


def test_scenarios_are_hashable_and_value_equal(single_node_a100, tiny_model, parallelism):
    first = Scenario.training(single_node_a100, tiny_model, parallelism, global_batch_size=4)
    # A structurally identical system built from scratch, not the same object.
    twin_system = build_system("A100", num_devices=8, intra_node="NVLink3", inter_node="HDR-IB")
    second = Scenario.training(twin_system, tiny_model, parallelism, global_batch_size=4)
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_cache_key_stable_and_tag_independent(single_node_a100, tiny_model, parallelism):
    base = Scenario.training(single_node_a100, tiny_model, parallelism, global_batch_size=4)
    tagged = base.with_tag("labelled")
    assert base.cache_key() == tagged.cache_key()
    assert tagged.tag == "labelled"


def test_cache_key_separates_different_scenarios(single_node_a100, tiny_model, parallelism):
    keys = {
        Scenario.training(single_node_a100, tiny_model, parallelism, global_batch_size=4).cache_key(),
        Scenario.training(single_node_a100, tiny_model, parallelism, global_batch_size=8).cache_key(),
        Scenario.inference(single_node_a100, tiny_model).cache_key(),
        Scenario.inference(single_node_a100, tiny_model, batch_size=2).cache_key(),
        Scenario.training_memory(tiny_model, parallelism, global_batch_size=4).cache_key(),
    }
    assert len(keys) == 5


def test_cache_key_sees_system_differences(tiny_model, parallelism):
    a100 = build_system("A100", num_devices=8)
    h100 = build_system("H100", num_devices=8)
    assert (
        Scenario.training(a100, tiny_model, parallelism, global_batch_size=4).cache_key()
        != Scenario.training(h100, tiny_model, parallelism, global_batch_size=4).cache_key()
    )


def test_model_names_resolve_through_the_zoo(single_node_a100):
    scenario = Scenario.inference(single_node_a100, "Llama2-13B")
    assert scenario.model.name == "Llama2-13B"


def test_kind_validation():
    with pytest.raises(ConfigurationError):
        Scenario(kind=ScenarioKind.TRAINING)  # no system / model / parallelism
    with pytest.raises(ConfigurationError):
        Scenario(kind=ScenarioKind.INFERENCE)  # no system


def test_evaluate_training_scenario(single_node_a100, tiny_model, parallelism):
    scenario = Scenario.training(single_node_a100, tiny_model, parallelism, global_batch_size=4)
    report = evaluate_scenario(scenario)
    assert isinstance(report, TrainingReport)
    assert report.step_time > 0


def test_evaluate_inference_scenario(single_node_a100, tiny_model):
    scenario = Scenario.inference(single_node_a100, tiny_model, tensor_parallel=2)
    report = evaluate_scenario(scenario)
    assert isinstance(report, InferenceReport)
    assert report.total_latency > 0


def test_bottleneck_scenarios_key_on_the_accelerator_only(tiny_model):
    """Wrapping into a canonical system makes the cluster shape irrelevant."""
    from_device = Scenario.prefill_bottlenecks(get_accelerator("A100"), tiny_model)
    from_cluster = Scenario.prefill_bottlenecks(build_system("A100", num_devices=64), tiny_model)
    assert from_device.cache_key() == from_cluster.cache_key()


def test_attention_bound_evaluates_to_breakdown(tiny_model):
    scenario = Scenario.attention_bound(get_accelerator("A100"), tiny_model, micro_batch=1, seq_len=256)
    breakdown = evaluate_scenario(scenario)
    assert set(breakdown) >= {"compute_bound", "memory_bound"}


def test_decode_mode_distinguishes_cache_keys(single_node_a100):
    average = Scenario.inference(single_node_a100, "Llama2-13B")
    exact = Scenario.inference(single_node_a100, "Llama2-13B", decode_mode="exact")
    assert average.decode_mode == "average"
    assert average.cache_key() != exact.cache_key()


def test_decode_mode_exact_through_sweep_runner(single_node_a100):
    runner = SweepRunner()
    results = runner.run(
        [
            Scenario.inference(single_node_a100, "Llama2-13B", generated_tokens=50),
            Scenario.inference(single_node_a100, "Llama2-13B", generated_tokens=50, decode_mode="exact"),
        ]
    )
    average, exact = (result.report for result in results)
    assert runner.stats.evaluations == 2  # different cache keys, two evaluations
    assert exact.decode.total_time != average.decode.total_time
    assert exact.decode.total_time == pytest.approx(average.decode.total_time, rel=0.05)


def test_serving_scenario_requires_config(single_node_a100):
    from repro.models.zoo import get_model

    with pytest.raises(ConfigurationError):
        Scenario(kind=ScenarioKind.SERVING, system=single_node_a100, model=get_model("Llama2-7B"))


def test_serving_scenario_cache_key_is_deterministic(single_node_a100):
    from repro.serving import ServingConfig, TraceConfig

    def build(rate):
        return Scenario.serving(
            single_node_a100,
            "Llama2-7B",
            ServingConfig(trace=TraceConfig(rate=rate, num_requests=8)),
        )

    assert build(1.0).cache_key() == build(1.0).cache_key()
    assert build(1.0).cache_key() != build(2.0).cache_key()
    # Seed is part of the trace, hence of the key.
    seeded = Scenario.serving(
        single_node_a100,
        "Llama2-7B",
        ServingConfig(trace=TraceConfig(rate=1.0, num_requests=8, seed=99)),
    )
    assert seeded.cache_key() != build(1.0).cache_key()


def test_serving_scenario_evaluates_and_caches(single_node_a100):
    from repro.serving import LengthDistribution, ServingConfig, ServingReport, TraceConfig

    config = ServingConfig(
        trace=TraceConfig(
            rate=2.0,
            num_requests=6,
            prompt_lengths=LengthDistribution.uniform(32, 64),
            output_lengths=LengthDistribution.constant(8),
        )
    )
    scenario = Scenario.serving(single_node_a100, "Llama2-7B", config, tensor_parallel=2)
    runner = SweepRunner()
    first, second = runner.run([scenario, scenario])
    assert isinstance(first.report, ServingReport)
    assert first.report.completed_requests == 6
    assert runner.stats.evaluations == 1  # identical key deduplicated
    assert second.from_cache
    assert second.report.to_dict() == first.report.to_dict()


def test_fleet_scenario_requires_config(single_node_a100):
    from repro.models.zoo import get_model

    with pytest.raises(ConfigurationError):
        Scenario(kind=ScenarioKind.FLEET, system=single_node_a100, model=get_model("Llama2-7B"))


def test_fleet_scenario_cache_key_is_deterministic(single_node_a100):
    from repro.serving import FleetConfig, TraceConfig

    def build(replicas, router="round_robin"):
        return Scenario.fleet(
            single_node_a100,
            "Llama2-7B",
            FleetConfig(trace=TraceConfig(rate=1.0, num_requests=8), num_replicas=replicas, router=router),
        )

    assert build(2).cache_key() == build(2).cache_key()
    assert build(2).cache_key() != build(4).cache_key()
    assert build(2).cache_key() != build(2, router="least_queue").cache_key()


def test_fleet_scenario_evaluates_and_caches(single_node_a100):
    from repro.serving import FleetConfig, FleetReport, LengthDistribution, TraceConfig

    config = FleetConfig(
        trace=TraceConfig(
            rate=2.0,
            num_requests=6,
            prompt_lengths=LengthDistribution.uniform(32, 64),
            output_lengths=LengthDistribution.constant(8),
        ),
        num_replicas=2,
    )
    scenario = Scenario.fleet(single_node_a100, "Llama2-7B", config)
    runner = SweepRunner()
    first, second = runner.run([scenario, scenario])
    assert isinstance(first.report, FleetReport)
    assert first.report.completed_requests == 6
    assert first.report.num_replicas == 2
    assert runner.stats.evaluations == 1  # identical key deduplicated
    assert second.from_cache
    assert second.report.to_dict() == first.report.to_dict()


# ---------------------------------------------------------------------------
# Cache-key stability across process boundaries (separate `repro run` and
# `repro serve` processes share one disk store, so a key must not depend on
# the process that computed it).
# ---------------------------------------------------------------------------

def _remote_cache_key(scenario):
    """Module-level so ProcessPoolExecutor can import it in the worker."""
    return scenario.cache_key()


def _stability_scenarios(system, model, parallelism):
    from repro.serving import (
        FleetConfig,
        FleetTraceConfig,
        LengthDistribution,
        SchedulerConfig,
        ServingConfig,
        ServingSLO,
        TenantTrace,
        TraceConfig,
    )

    serving = ServingConfig(
        trace=TraceConfig(
            rate=2.0,
            num_requests=4,
            prompt_lengths=LengthDistribution.uniform(16, 64),
            output_lengths=LengthDistribution.constant(8),
        ),
        scheduler=SchedulerConfig(max_batch_size=4),
        slo=ServingSLO(),
    )
    fleet = FleetConfig(
        trace=FleetTraceConfig(
            tenants=(
                TenantTrace(trace=serving.trace, name="a", diurnal=(1.0, 2.0)),
                TenantTrace(trace=TraceConfig(rate=1.0, num_requests=4, seed=7), name="b"),
            )
        ),
        num_replicas=2,
        router="least_queue",
    )
    return [
        Scenario.training(system, model, parallelism, global_batch_size=4),
        Scenario.inference(system, model, batch_size=2, decode_mode="exact"),
        Scenario.serving(system, model, serving),
        Scenario.fleet(system, model, fleet),
        Scenario.training_memory(model, parallelism, global_batch_size=4),
        Scenario.prefill_bottlenecks("A100", model, prompt_tokens=64),
        Scenario.attention_bound("A100", model, micro_batch=1, seq_len=128),
        Scenario.gemv_validation(),
    ]


def test_cache_key_survives_pickle_round_trip(single_node_a100, tiny_model, parallelism):
    import pickle

    for scenario in _stability_scenarios(single_node_a100, tiny_model, parallelism):
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario
        assert clone.cache_key() == scenario.cache_key(), scenario.kind


def test_cache_key_stable_across_process_executor(single_node_a100, tiny_model, parallelism):
    """Keys computed inside worker processes equal the parent's keys."""
    import concurrent.futures

    scenarios = _stability_scenarios(single_node_a100, tiny_model, parallelism)
    local = [scenario.cache_key() for scenario in scenarios]
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        remote = list(pool.map(_remote_cache_key, scenarios))
    assert remote == local
