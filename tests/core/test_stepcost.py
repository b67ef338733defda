"""Tests for the step-cost layer (prefill / decode steps over mixed batches)."""

import dataclasses
import random
import sys
import threading

import pytest

from repro.core.stepcost import StepCost, StepCostModel, ZERO_STEP
from repro.errors import ConfigurationError
from repro.hardware.cluster import build_system
from repro.hardware.datatypes import Precision
from repro.models.transformer import TransformerConfig
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


# -- table-priced prefill and shared tables ----------------------------------------------

def _scalar_prefill(step_cost, model, prompt_lens, tensor_parallel=1, precision=Precision.FP16, include_lm_head=True):
    """The reference: _price_step over the template's operators in step order."""
    template = step_cost.template(model, tensor_parallel, precision)
    ops = list(template.step_token_ops(sum(prompt_lens)))
    for length in prompt_lens:
        ops.extend(template.step_attention_ops(length, length))
    return step_cost._price_step(
        model,
        ops,
        tensor_parallel,
        precision,
        num_requests=len(prompt_lens),
        tokens=sum(prompt_lens),
        include_lm_head=include_lm_head,
    )


_PREFILL_CONFIGS = (
    {},
    {"tensor_parallel": 4},
    {"tensor_parallel": 16, "precision": Precision.FP8},
    {"include_lm_head": False},
)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_prefill_step_equals_scalar_pricing(system, model, warm):
    rng = random.Random(3)
    shared = StepCostModel(system=system)
    for _ in range(8):
        prompt_lens = [rng.randint(1, 2500) for _ in range(rng.randint(1, 12))]
        for kwargs in _PREFILL_CONFIGS:
            # Cold: a fresh model grows its tables from empty on this step.
            step_cost = shared if warm else StepCostModel(system=system)
            assert step_cost.prefill_step(model, prompt_lens, **kwargs) == _scalar_prefill(
                step_cost, model, prompt_lens, **kwargs
            )


@pytest.mark.parametrize("prompt_lens", [[0], [-3], [17, 0]])
def test_prefill_step_rejects_non_positive_prompts(step_cost, model, prompt_lens):
    with pytest.raises(ConfigurationError, match="micro_batch and seq_len must be positive"):
        step_cost.prefill_step(model, prompt_lens)


def test_decode_run_prices_lengths_below_one_as_one(step_cost, model):
    # decode_step prices every KV length below 1 as 1; a negative length must
    # not index the table from its end.
    _assert_run_matches_steps(step_cost, model, [-3, 0, 2], 5)


def test_cache_counters_count_table_lookups(system, model):
    probe = StepCostModel(system=system)
    probe.prefill_step(model, [100, 200])  # attention, tokens, lm head: all grown
    assert (probe.cache_hits, probe.cache_misses) == (0, 3)
    probe.prefill_step(model, [50])  # all three covered
    assert (probe.cache_hits, probe.cache_misses) == (3, 3)
    probe.decode_run(model, [100, 200], 8, tensor_parallel=4)  # a new configuration, with collectives
    assert (probe.cache_hits, probe.cache_misses) == (3, 7)
    probe.decode_run(model, [100, 200], 8, tensor_parallel=4)
    assert (probe.cache_hits, probe.cache_misses) == (7, 7)


def test_table_growth_is_bounded_by_the_demand(system, model):
    probe = StepCostModel(system=system)
    probe.prefill_step(model, [4096])
    tables = probe._step_tables(model, 1, Precision.FP16)
    assert tables.prefill_attention.high == 4097
    assert tables.tokens.high == 4097
    probe.prefill_step(model, [4096] * 16)  # 65,536 tokens
    assert tables.tokens.high == 65_537
    probe.prefill_step(model, [4096] * 16 + [1])
    assert tables.tokens.high == 2 * 65_537


def _thread_jobs(rng, configs, longest):
    """One seeded prefill or decode call per entry of ``configs``, as (method, args, kwargs)."""
    jobs = []
    for model, kwargs in configs:
        kind = rng.randrange(3)
        if kind == 0:
            prompt_lens = [rng.randint(1, longest) for _ in range(rng.randint(1, 16))]
            jobs.append(("prefill_step", (model, prompt_lens), kwargs))
        elif kind == 1:
            kv_lens = [rng.randint(0, longest) for _ in range(rng.randint(1, 32))]
            jobs.append(("decode_run", (model, kv_lens, rng.randint(1, 300)), kwargs))
        else:
            kv_lens = [rng.randint(0, longest) for _ in range(rng.randint(1, 8))]
            jobs.append(("decode_step", (model, kv_lens), kwargs))
    return jobs


def _outcome(result):
    if isinstance(result, StepCost):
        return result
    return result.step_costs(), result.total_times.tolist()


def _run_threads(step_cost, job_lists):
    results = [None] * len(job_lists)
    errors = []
    barrier = threading.Barrier(len(job_lists))

    def work(index):
        try:
            barrier.wait()
            results[index] = [
                _outcome(getattr(step_cost, method)(*args, **kwargs)) for method, args, kwargs in job_lists[index]
            ]
        except Exception as error:  # reported by the caller
            errors.append(error)

    threads = [threading.Thread(target=work, args=(index,)) for index in range(len(job_lists))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results, errors


def _assert_threads_match_serial(system, job_lists):
    shared = StepCostModel(system=system)
    results, errors = _run_threads(shared, job_lists)
    assert errors == []
    serial = StepCostModel(system=system)
    for jobs, got in zip(job_lists, results):
        assert got == [_outcome(getattr(serial, method)(*args, **kwargs)) for method, args, kwargs in jobs]
    return shared


def test_shared_model_prices_exactly_under_threads(system, model):
    # Eight threads race their table growths on one configuration.
    job_lists = [_thread_jobs(random.Random(seed), [(model, {})] * 12, longest=2500) for seed in range(8)]
    shared = _assert_threads_match_serial(system, job_lists)
    assert len(shared._tables) == 1


def test_shared_model_prices_exactly_past_the_configuration_bound(system):
    # 80 configurations: threads create and evict tables past the bound of 64.
    configs = [
        (get_model(name), {"tensor_parallel": tensor_parallel, "precision": precision})
        for name in ("Llama2-7B", "GPT-7B", "Llama2-70B", "GPT-22B")
        for tensor_parallel in (1, 2, 4, 8, 16)
        for precision in (Precision.FP16, Precision.BF16, Precision.FP8, Precision.FP32)
    ]
    # Thread i visits 30 of them from the 10 i-th on, so together they
    # touch all 80 and every configuration races in three threads.
    job_lists = []
    for index in range(8):
        rng = random.Random(100 + index)
        visits = (configs * 2)[10 * index : 10 * index + 30]
        job_lists.append(_thread_jobs(rng, rng.sample(visits, len(visits)), longest=300))
    shared = _assert_threads_match_serial(system, job_lists)
    assert len(shared._tables) <= 64


def test_steps_hash_the_config_once_per_model_object(system, model, monkeypatch):
    # The tables are found by the model object's identity after its first
    # step, so a fleet's thousands of steps do not rehash the whole config.
    hashes = []
    value_hash = TransformerConfig.__hash__
    monkeypatch.setattr(TransformerConfig, "__hash__", lambda config: hashes.append(config) or value_hash(config))
    fresh = StepCostModel(system=system)
    first = fresh.prefill_step(model, [64, 32])
    first_hashes = len(hashes)
    assert first_hashes >= 1  # the first step finds (or makes) the tables by value
    for _ in range(50):
        assert fresh.prefill_step(model, [64, 32]) == first
        fresh.decode_run(model, [100, 200], 8)
    assert len(hashes) == first_hashes
    # An equal but distinct config shares the tables, at one more hash.
    twin = dataclasses.replace(model)
    assert twin is not model
    assert fresh.prefill_step(twin, [64, 32]) == first
    assert fresh._step_tables(twin, 1, Precision.FP16) is fresh._step_tables(model, 1, Precision.FP16)
    assert len(fresh._tables) == 1
    # A different TP degree is a different configuration.
    fresh.prefill_step(model, [64], tensor_parallel=2)
    assert len(fresh._tables) == 2
