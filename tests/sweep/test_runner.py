"""Tests for the sweep runner: dedup, caching, executor name, error capture."""

import types

import pytest

from repro.errors import ConfigurationError, MemoryCapacityError
from repro.hardware.cluster import build_system
from repro.parallelism.config import ParallelismConfig
from repro.sweep import Scenario, SweepRunner, default_runner, expand_grid


@pytest.fixture
def system():
    return build_system("A100", num_devices=8, intra_node="NVLink3", inter_node="HDR-IB")


@pytest.fixture
def training_scenario(system, tiny_model):
    parallelism = ParallelismConfig(data_parallel=2, tensor_parallel=4, micro_batch_size=1)
    return Scenario.training(system, tiny_model, parallelism, global_batch_size=4)


def test_same_scenario_twice_evaluates_once(training_scenario):
    runner = SweepRunner()
    results = runner.run([training_scenario, training_scenario])
    assert runner.stats.evaluations == 1
    assert runner.stats.cache_hits == 1
    assert results[0].value == results[1].value
    assert not results[0].from_cache
    assert results[1].from_cache


def test_cache_persists_across_run_calls(training_scenario):
    runner = SweepRunner()
    first = runner.run([training_scenario])[0]
    second = runner.run([training_scenario])[0]
    assert runner.stats.evaluations == 1
    assert second.from_cache
    assert first.value == second.value


def test_differently_tagged_duplicates_share_one_evaluation(training_scenario):
    runner = SweepRunner()
    results = runner.run([training_scenario.with_tag("a"), training_scenario.with_tag("b")])
    assert runner.stats.evaluations == 1
    assert results[0].scenario.tag == "a"
    assert results[1].scenario.tag == "b"


def test_evaluate_single_scenario_uses_cache(training_scenario):
    runner = SweepRunner()
    first = runner.evaluate(training_scenario)
    second = runner.evaluate(training_scenario)
    assert runner.stats.evaluations == 1
    assert runner.stats.cache_hits == 1
    assert first == second


def test_results_preserve_input_order(system, tiny_model):
    runner = SweepRunner()
    scenarios = [Scenario.inference(system, tiny_model, batch_size=batch) for batch in (4, 1, 2)]
    results = runner.run(scenarios)
    assert [r.scenario.batch_size for r in results] == [4, 1, 2]


@pytest.mark.parametrize("executor", ["gpu", "thread", "process"])
def test_unknown_executor_rejected(executor):
    with pytest.raises(ConfigurationError):
        SweepRunner(executor=executor)
    SweepRunner(executor="serial", batch_planning=True)  # the one executor name still accepted


def test_infeasible_scenarios_raise_by_default(system):
    # Llama2-70B FP16 weights do not fit a single A100.
    scenario = Scenario.inference(system, "Llama2-70B", tensor_parallel=1)
    with pytest.raises(MemoryCapacityError):
        SweepRunner().run([scenario])


def test_infeasible_scenarios_captured_on_request(system, tiny_model):
    runner = SweepRunner(capture_errors=True)
    bad = Scenario.inference(system, "Llama2-70B", tensor_parallel=1)
    good = Scenario.inference(system, tiny_model)
    results = runner.run([bad, good])
    assert not results[0].ok
    assert results[0].value is None
    assert "needs" in results[0].error.lower()
    assert results[1].ok
    assert runner.stats.errors == 1


def test_non_library_errors_always_propagate(monkeypatch, training_scenario):
    runner = SweepRunner(capture_errors=True)
    monkeypatch.setattr("repro.sweep.runner.evaluate_scenario", lambda scenario: (_ for _ in ()).throw(TypeError("bug")))
    with pytest.raises(TypeError):
        runner.run([training_scenario])


def test_duplicates_survive_a_disabled_cache(system, tiny_model):
    """cache_size=0 must still dedup within one run() call, not crash."""
    runner = SweepRunner(cache_size=0)
    scenario = Scenario.inference(system, tiny_model)
    results = runner.run([scenario, scenario])
    assert runner.stats.evaluations == 1
    assert results[0].value == results[1].value
    assert results[1].from_cache


def test_duplicates_survive_mid_run_eviction(system, tiny_model):
    """A repeat of an early scenario must not depend on the evictable LRU."""
    runner = SweepRunner(cache_size=1)
    first = Scenario.inference(system, tiny_model, batch_size=1)
    second = Scenario.inference(system, tiny_model, batch_size=2)
    results = runner.run([first, second, first])
    assert runner.stats.evaluations == 2
    assert results[0].value == results[2].value
    assert results[2].from_cache


def test_cache_eviction_keeps_runner_usable(system, tiny_model):
    runner = SweepRunner(cache_size=2)
    scenarios = [Scenario.inference(system, tiny_model, batch_size=batch) for batch in (1, 2, 3)]
    runner.run(scenarios)
    assert runner.stats.evaluations == 3
    # The oldest entry was evicted, so re-running it evaluates again.
    runner.run([scenarios[0]])
    assert runner.stats.evaluations == 4


def test_run_grid_expands_cartesian_product_with_axis_columns(system, tiny_model):
    runner = SweepRunner()
    table = runner.run_grid(
        lambda batch_size, tensor_parallel: Scenario.inference(
            system, tiny_model, batch_size=batch_size, tensor_parallel=tensor_parallel
        ),
        extract=lambda result: {"latency_s": result.value.total_latency},
        batch_size=[1, 2],
        tensor_parallel=[1, 2],
    )
    assert len(table) == 4
    assert runner.stats.evaluations == 4
    # Axis columns are attached in grid order, last axis fastest.
    assert table["batch_size"].tolist() == [1, 1, 2, 2]
    assert table["tensor_parallel"].tolist() == [1, 2, 1, 2]
    assert (table["latency_s"] > 0).all()


def test_run_grid_accepts_any_mapping_from_extract(system, tiny_model):
    table = SweepRunner().run_grid(
        lambda batch_size: Scenario.inference(system, tiny_model, batch_size=batch_size),
        extract=lambda result: types.MappingProxyType({"latency_s": result.value.total_latency}),
        batch_size=[1, 2],
    )
    assert table.keys() == ["batch_size", "latency_s"]
    assert table["batch_size"].tolist() == [1, 2]
    assert (table["latency_s"] > 0).all()


def test_run_grid_default_extract_has_error_column(system, tiny_model):
    runner = SweepRunner(capture_errors=True)
    table = runner.run_grid(
        lambda batch_size: Scenario.inference(system, tiny_model, batch_size=batch_size),
        batch_size=[1, 2],
    )
    assert table.keys() == ["batch_size", "error"]
    assert table["error"].tolist() == [None, None]


def test_expand_grid_orders_and_counts():
    combos = list(expand_grid(a=[1, 2], b=["x", "y", "z"]))
    assert len(combos) == 6
    assert combos[0] == {"a": 1, "b": "x"}
    assert combos[-1] == {"a": 2, "b": "z"}
    assert list(expand_grid()) == []


def test_default_runner_is_shared():
    assert default_runner() is default_runner()


def test_expand_grid_order_is_deterministic_and_follows_keywords():
    """Axis order = keyword order (last axis fastest), stable across calls."""
    first = list(expand_grid(a=[1, 2], b=["x", "y"], c=[True]))
    second = list(expand_grid(a=[1, 2], b=["x", "y"], c=[True]))
    assert first == second
    assert first == [
        {"a": 1, "b": "x", "c": True},
        {"a": 1, "b": "y", "c": True},
        {"a": 2, "b": "x", "c": True},
        {"a": 2, "b": "y", "c": True},
    ]
    # Reordering the keywords reorders the sweep, deterministically.
    swapped = list(expand_grid(b=["x", "y"], a=[1, 2], c=[True]))
    assert [(combo["a"], combo["b"]) for combo in swapped] == [(1, "x"), (2, "x"), (1, "y"), (2, "y")]


def test_on_result_streams_every_input_in_order_when_serial(system, tiny_model):
    runner = SweepRunner()
    scenario_a = Scenario.inference(system, tiny_model, batch_size=1)
    scenario_b = Scenario.inference(system, tiny_model, batch_size=2)
    seen = []
    results = runner.run([scenario_a, scenario_b, scenario_a], on_result=seen.append)
    assert len(seen) == 3
    assert [r.scenario.batch_size for r in seen] == [1, 1, 2]  # duplicate fires with its original
    assert [r.from_cache for r in seen] == [False, True, False]
    assert results[2].from_cache


def test_on_result_fires_cached_results_before_evaluations(system, tiny_model):
    runner = SweepRunner()
    warm = Scenario.inference(system, tiny_model, batch_size=1)
    cold = Scenario.inference(system, tiny_model, batch_size=2)
    runner.run([warm])
    seen = []
    runner.run([cold, warm], on_result=seen.append)
    assert [r.scenario.batch_size for r in seen] == [1, 2]  # cache hit first, then the evaluation
    assert [r.from_cache for r in seen] == [True, False]


def test_on_result_covers_every_scenario_of_a_mixed_batched_generation(system, tiny_model):
    # The planner prices batchable kinds together and sends the rest down the
    # one-at-a-time path; every input still fires once, whatever the order.
    grid = [
        Scenario.decode_bottlenecks("A100", tiny_model, kv_len=64),
        Scenario.inference_memory(tiny_model),  # not batchable
        Scenario.inference(system, tiny_model, batch_size=2),
        Scenario.inference(system, "Llama2-70B", tensor_parallel=1),  # infeasible
        Scenario.decode_bottlenecks("A100", tiny_model, kv_len=64),  # duplicate
    ]
    runner = SweepRunner(capture_errors=True)
    seen = []
    results = runner.run(grid, on_result=seen.append)
    assert sorted(r.scenario.cache_key() for r in seen) == sorted(s.cache_key() for s in grid)
    assert [r.scenario for r in results] == grid  # the return stays input-ordered
    assert [r.ok for r in results] == [True, True, True, False, True]
    assert runner.stats.evaluations == 4
    assert 0 < runner.stats.batched_scenarios < runner.stats.evaluations


def test_interrupted_batched_generation_resumes_without_duplicates(tmp_path, tiny_model):
    """Outcomes are recorded as they are assembled: an interrupt keeps what
    completed, and the resumed run prices only the rest, each once."""
    scenarios = [Scenario.decode_bottlenecks("A100", tiny_model, kv_len=kv) for kv in (40, 80, 120, 160)]
    seen = []

    def interrupt_after_two(result):
        seen.append(result)
        if len(seen) == 2:
            raise KeyboardInterrupt

    first = SweepRunner(disk_cache=tmp_path)
    with pytest.raises(KeyboardInterrupt):
        first.run(scenarios, on_result=interrupt_after_two)
    assert first.stats.evaluations == 2
    assert first.disk_cache.count() == 2

    resumed = SweepRunner(disk_cache=tmp_path)
    results = resumed.run(scenarios)
    assert resumed.stats.disk_hits == 2
    assert resumed.stats.evaluations == 2
    assert resumed.disk_cache.count() == len(scenarios)
    assert all(result.ok for result in results)


def test_on_result_receives_captured_errors(system, tiny_model):
    runner = SweepRunner(capture_errors=True)
    bad = Scenario.inference(system, "Llama2-70B", tensor_parallel=1)
    seen = []
    runner.run([bad], on_result=seen.append)
    assert len(seen) == 1
    assert seen[0].error is not None


def test_uncaptured_errors_raise_deterministically_after_evaluating_everything(system, tiny_model):
    """With capture off, every pending scenario still evaluates (and caches)
    before the earliest input's error is raised."""
    first_bad = Scenario.inference(system, "Llama2-70B", tensor_parallel=1, prompt_tokens=100)
    good = Scenario.inference(system, tiny_model)
    second_bad = Scenario.inference(system, "Llama2-70B", tensor_parallel=1, prompt_tokens=300)
    runner = SweepRunner()
    with pytest.raises(MemoryCapacityError):
        runner.run([first_bad, good, second_bad])
    assert runner.stats.evaluations == 3  # nothing was skipped
    # Everything landed in the cache before the raise: the captured re-run is
    # served entirely from it.
    results = runner.run([first_bad, good, second_bad], capture_errors=True)
    assert runner.stats.evaluations == 3
    assert [r.from_cache for r in results] == [True, True, True]
    assert results[1].ok and not results[0].ok and not results[2].ok
