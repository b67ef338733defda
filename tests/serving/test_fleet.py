"""Tests for the fleet simulator: routing, bit-identity, aggregation, cost."""

import json
import pathlib

import pytest

from repro.errors import ConfigurationError
from repro.hardware.cluster import build_system
from repro.models.zoo import get_model
from repro.serving import (
    FleetConfig,
    FleetReport,
    FleetSimulator,
    FleetTraceConfig,
    LengthDistribution,
    RoundRobinRouter,
    SchedulerConfig,
    ServingSimulator,
    TenantTrace,
    TraceConfig,
    get_router,
)

SYSTEM = build_system("A100", num_devices=8, intra_node="NVLink3", inter_node="HDR-IB")
MODEL = get_model("Llama2-7B")

#: ``FleetReport.to_dict()`` of the stateful routers on :func:`small_trace`,
#: keyed ``"<router>/<num_replicas>"``.  Recorded with the arrival-interleaved
#: loop those routers ran on before 2.0.0 moved them onto the event heap.
GOLDEN_STATEFUL = json.loads((pathlib.Path(__file__).parent / "golden_stateful_fleet.json").read_text())


def small_trace(rate=3.0, num_requests=24, seed=5, **kwargs):
    return TraceConfig(
        rate=rate,
        num_requests=num_requests,
        prompt_lengths=LengthDistribution.uniform(32, 128),
        output_lengths=LengthDistribution.constant(16),
        seed=seed,
        **kwargs,
    )


def fleet_sim(fleet, **kwargs):
    return FleetSimulator(system=SYSTEM, model=MODEL, fleet=fleet, **kwargs)


class StatefulRoundRobin(RoundRobinRouter):
    """Round-robin with the vectorized fast path disabled: forces the
    per-arrival event-heap loop while keeping the same assignment."""

    def assign_batch(self, columns, num_replicas):
        return None


# -- bit-identity with the single-replica simulator -------------------------------------

def test_single_replica_fleet_is_bit_identical_to_serving_simulator():
    trace = small_trace()
    single = ServingSimulator(system=SYSTEM, model=MODEL).run(trace)
    report = fleet_sim(FleetConfig(trace=trace, num_replicas=1)).run()
    assert len(report.replicas) == 1
    assert report.replicas[0].to_dict() == single.to_dict()
    assert report.completed_requests == single.completed_requests
    assert report.simulated_time == single.simulated_time
    assert report.ttft_p99 == single.ttft_p99


def test_single_replica_bit_identity_holds_for_stateful_routers():
    # Stateful routers go through the event-heap loop, whose until-horizon
    # epoch cuts must be invisible in the results.
    trace = small_trace()
    single = ServingSimulator(system=SYSTEM, model=MODEL).run(trace)
    for router in ("least_kv_load", "least_queue"):
        report = fleet_sim(FleetConfig(trace=trace, num_replicas=1, router=router)).run()
        assert report.replicas[0].to_dict() == single.to_dict(), router


def test_round_robin_fleet_equals_independent_partitioned_runs():
    # N identical replicas under round-robin == N independent single-replica
    # simulations over the partitioned arrivals, request for request.
    trace = small_trace(num_requests=30)
    requests = trace.generate()
    num_replicas = 3
    report = fleet_sim(FleetConfig(trace=trace, num_replicas=num_replicas)).run()
    for replica in range(num_replicas):
        partition = [r for i, r in enumerate(requests) if i % num_replicas == replica]
        independent = ServingSimulator(system=SYSTEM, model=MODEL).run(partition)
        fleet_requests = [m.to_dict() for m in report.replicas[replica].per_request]
        solo_requests = [m.to_dict() for m in independent.per_request]
        assert fleet_requests == solo_requests
        assert report.replicas[replica].to_dict() == independent.to_dict()


@pytest.mark.parametrize("num_replicas", [1, 2, 3])
@pytest.mark.parametrize("router", ["least_kv_load", "least_queue"])
def test_stateful_routers_reproduce_pinned_reports(router, num_replicas):
    report = fleet_sim(FleetConfig(trace=small_trace(), num_replicas=num_replicas, router=router)).run()
    # The JSON round trip turns tuples into lists; floats survive it exactly.
    assert json.loads(json.dumps(report.to_dict())) == GOLDEN_STATEFUL[f"{router}/{num_replicas}"]


def test_heap_path_matches_partitioned_path():
    # Forcing round-robin through the per-arrival event-heap loop must give
    # the exact same fleet report as the vectorized partitioned path.
    trace = small_trace(num_requests=30)
    for num_replicas in (1, 2, 3):
        config = FleetConfig(trace=trace, num_replicas=num_replicas)
        fast = fleet_sim(config).run()
        slow = fleet_sim(config, router=StatefulRoundRobin()).run()
        assert fast.to_dict() == slow.to_dict(), num_replicas


# -- routing policies -------------------------------------------------------------------

def test_all_registered_routers_complete_the_workload():
    trace = small_trace()
    for router in ("round_robin", "least_kv_load", "least_queue", "prefix_affinity"):
        report = fleet_sim(FleetConfig(trace=trace, num_replicas=2, router=router)).run()
        assert report.completed_requests == 24, router
        assert report.router == router


def test_unknown_router_rejected():
    with pytest.raises(ConfigurationError):
        FleetConfig(trace=small_trace(), router="weighted_random")
    with pytest.raises(ConfigurationError):
        get_router("weighted_random")


def test_prefix_affinity_concentrates_tenants():
    # Two tenants on a 4-replica fleet: prefix affinity uses only 2 replicas,
    # leaving the others idle (zero-request replicas must report cleanly).
    fleet = FleetTraceConfig(
        tenants=(
            TenantTrace(trace=small_trace(seed=1, num_requests=16), name="a"),
            TenantTrace(trace=small_trace(seed=2, num_requests=16), name="b"),
        )
    )
    report = fleet_sim(
        FleetConfig(trace=fleet, num_replicas=4, router="prefix_affinity")
    ).run()
    loaded = [r for r in report.replicas if r.num_requests > 0]
    idle = [r for r in report.replicas if r.num_requests == 0]
    assert len(loaded) == 2 and len(idle) == 2
    for replica in idle:
        assert replica.completed_requests == 0
        assert replica.ttft_p99 == 0.0  # explicit sentinel, no percentile crash
    assert report.load_imbalance > 0.5


def test_least_queue_balances_better_than_prefix_affinity():
    fleet = FleetTraceConfig(
        tenants=(
            TenantTrace(trace=small_trace(seed=1, num_requests=24), name="heavy"),
            TenantTrace(trace=small_trace(seed=2, num_requests=6, rate=0.5), name="light"),
        )
    )
    balanced = fleet_sim(FleetConfig(trace=fleet, num_replicas=2, router="least_queue")).run()
    pinned = fleet_sim(FleetConfig(trace=fleet, num_replicas=2, router="prefix_affinity")).run()
    assert balanced.load_imbalance < pinned.load_imbalance


# -- aggregation and cost ---------------------------------------------------------------

def test_fleet_report_aggregates_replica_totals():
    trace = small_trace()
    report = fleet_sim(FleetConfig(trace=trace, num_replicas=2)).run()
    assert report.num_requests == sum(r.num_requests for r in report.replicas) == 24
    assert report.completed_requests == sum(r.completed_requests for r in report.replicas)
    assert report.busy_time == pytest.approx(sum(r.busy_time for r in report.replicas))
    assert report.decode_steps == sum(r.decode_steps for r in report.replicas)
    assert report.simulated_time == max(r.simulated_time for r in report.replicas)
    assert 0 < report.device_utilization <= 1.0
    assert report.ttft_p50 <= report.ttft_p99
    # Fleet percentiles pool every request; p99 of the pool sits within the
    # per-replica extremes.
    assert min(r.ttft_p99 for r in report.replicas) <= report.ttft_p99
    assert report.ttft_p99 <= max(r.ttft_p99 for r in report.replicas)


def test_fleet_cost_accounting():
    trace = small_trace()
    report = fleet_sim(FleetConfig(trace=trace, num_replicas=2), tensor_parallel=2).run()
    assert report.total_device_seconds == pytest.approx(2 * 2 * report.simulated_time)
    assert report.energy_joules > 0
    assert report.cost_usd > 0
    assert report.cost_per_million_tokens > 0
    # Doubling the fleet at fixed work cannot cost less.
    bigger = fleet_sim(FleetConfig(trace=trace, num_replicas=4), tensor_parallel=2).run()
    assert bigger.cost_usd > report.cost_usd * 0.99


def test_fleet_report_round_trips_through_json():
    report = fleet_sim(FleetConfig(trace=small_trace(num_requests=8))).run()
    clone = FleetReport.from_json(report.to_json())
    assert clone == report
    assert clone.summary() == report.summary()


def test_fleet_accepts_explicit_request_list_and_scheduler_config():
    requests = small_trace(num_requests=12).generate()
    config = FleetConfig(
        trace=small_trace(num_requests=12),
        num_replicas=2,
        scheduler=SchedulerConfig(max_batch_size=4),
    )
    report = fleet_sim(config).run(requests)
    assert report.completed_requests == 12
    with pytest.raises(ConfigurationError):
        fleet_sim(config).run([])


def test_fleet_config_validation():
    with pytest.raises(ConfigurationError):
        FleetConfig(trace=small_trace(), num_replicas=0)
    with pytest.raises(ConfigurationError):
        FleetConfig(trace=small_trace(), max_epoch_steps=0)


def test_epoch_parameters_do_not_change_results():
    # max_epoch_steps / arrival_probe_steps only regroup the fused epochs;
    # any values must produce bit-identical fleet reports.
    trace = small_trace()
    base = fleet_sim(FleetConfig(trace=trace, num_replicas=2)).run()
    regrouped = fleet_sim(
        FleetConfig(trace=trace, num_replicas=2, max_epoch_steps=3, arrival_probe_steps=2)
    ).run()
    assert base.to_dict() == regrouped.to_dict()
