"""Fleet-scale serving simulation: N engine replicas behind a router.

Production serving is never one engine -- it is a fleet of identical
replicas behind a routing tier, fed by many tenants whose load breathes
over the day.  This module scales the single-replica event-horizon
simulator (:mod:`repro.serving.simulator`) to that setting without
reintroducing any per-step Python work:

* Every replica is a :class:`~repro.serving.simulator.ReplicaEngine` --
  the same :class:`~repro.serving.scheduler.ContinuousBatchingScheduler`
  plus epoch-fused :meth:`~repro.core.stepcost.StepCostModel.decode_run`
  loop -- and all replicas share **one** :class:`StepCostModel` per system,
  so its step-cost caches amortize across the whole fleet.
* **Stateless** routers (round-robin, prefix-affinity) assign the entire
  trace in one vectorized pass; each replica then drains its partition as
  an independent single-replica simulation.  This is the fleet's fast path
  (and what makes an N=1 fleet bit-identical to :class:`ServingSimulator`).
* **Stateful** routers (least-KV-load, least-queue) need live replica state
  at each arrival, so the fleet runs an event-heap loop at cluster level
  (:meth:`FleetSimulator._run_heap`): the next event is the next
  arrival, and every replica advances to it through epoch-fused decode runs
  cut at that horizon (``ReplicaEngine.advance(until=...)``).  The epoch
  cuts change nothing but grouping, so per-replica results stay exact.

The outcome is a :class:`FleetReport`: per-replica
:class:`~repro.serving.report.ServingReport` objects plus fleet-level
latency percentiles, SLO goodput, load imbalance, and dollar cost per
token via :class:`~repro.cost.tco.TCOModel`.

Fleets can additionally be *failure-aware and elastic*: a
:class:`~repro.serving.faults.FaultConfig` injects deterministic replica
crash/recovery events (lost requests re-enter the router under a
:class:`~repro.serving.faults.RetryPolicy`), and an autoscaler
(:class:`~repro.serving.faults.QueueDepthAutoscaler` /
:class:`~repro.serving.faults.SLOAutoscaler`) joins and drains replicas on
rolling windows.  Both ride the same event-heap loop as the stateful
routers: crash, recovery and scaling events simply join the arrivals in the
heap.  With faults disabled and no autoscaler the heap holds only arrivals
and the report skips the resilience accounting, so a fault-free fleet stays
bit-identical to earlier releases (pinned in
``tests/serving/golden_stateful_fleet.json``).
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.stepcost import StepCostModel
from ..cost.tco import TCOModel
from ..errors import ConfigurationError
from ..hardware.cluster import SystemSpec
from ..hardware.datatypes import Precision
from ..models.transformer import TransformerConfig
from .faults import AutoscalerConfig, FaultConfig, RetryPolicy
from .report import RequestMetrics, ServingReport, ServingSLO, percentile
from .request import FleetTraceConfig, Request, TraceColumns, TraceConfig
from .router import ROUTER_POLICIES, RouterPolicy, get_router
from .scheduler import SchedulerConfig
from .simulator import _ARRIVAL_PROBE_STEPS, _MAX_EPOCH_STEPS, ReplicaEngine, ServingSimulator

# Event kinds of the event-heap fleet loop, in tie-break priority order at
# equal timestamps: recoveries land before crashes, crashes before scaling
# decisions, and routing happens last so it sees the settled membership.
_EVENT_UP = 0
_EVENT_DOWN = 1
_EVENT_SCALE = 2
_EVENT_ARRIVAL = 3


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """Frozen description of one fleet simulation.

    Attributes:
        trace: The workload -- a single-tenant :class:`TraceConfig` or a
            multi-tenant :class:`FleetTraceConfig`.
        num_replicas: Engine replicas in the fleet (each runs the model at
            the scenario's tensor parallelism).
        router: Registered routing policy name
            (:data:`~repro.serving.router.ROUTER_POLICIES`).
        scheduler: Per-replica batching / admission-control knobs.
        slo: Latency SLO for goodput accounting (fleet and per replica).
        include_lm_head: Whether steps price the logits GEMM.
        max_epoch_steps: Per-replica fused-epoch cap
            (:class:`~repro.serving.simulator.ServingSimulator` default).
        arrival_probe_steps: Per-replica probe cap while an admissible
            arrival is pending.
        faults: Optional replica crash/recovery process; ``None`` (or a
            config with infinite MTBF) keeps the fleet fault-free.
        retry: What happens to requests a crash evicts (only consulted
            when faults fire).
        autoscaler: Optional elastic-membership controller; ``num_replicas``
            is the *initial* fleet size and must sit inside the scaler's
            ``[min_replicas, max_replicas]`` band.
    """

    trace: Union[TraceConfig, FleetTraceConfig]
    num_replicas: int = 2
    router: str = "round_robin"
    scheduler: SchedulerConfig = dataclasses.field(default_factory=SchedulerConfig)
    slo: ServingSLO = dataclasses.field(default_factory=ServingSLO)
    include_lm_head: bool = True
    max_epoch_steps: int = _MAX_EPOCH_STEPS
    arrival_probe_steps: int = _ARRIVAL_PROBE_STEPS
    faults: Optional[FaultConfig] = None
    retry: RetryPolicy = dataclasses.field(default_factory=RetryPolicy)
    autoscaler: Optional[AutoscalerConfig] = None

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ConfigurationError("a fleet needs at least one replica")
        if self.router not in ROUTER_POLICIES:
            raise ConfigurationError(
                f"unknown router policy {self.router!r}; choose from {sorted(ROUTER_POLICIES)}"
            )
        if self.max_epoch_steps < 1 or self.arrival_probe_steps < 1:
            raise ConfigurationError("max_epoch_steps and arrival_probe_steps must be >= 1")
        if self.autoscaler is not None and not (
            self.autoscaler.min_replicas <= self.num_replicas <= self.autoscaler.max_replicas
        ):
            raise ConfigurationError(
                "num_replicas must lie inside the autoscaler's [min_replicas, max_replicas] band"
            )

    @property
    def resilient(self) -> bool:
        """Whether faults or elasticity are active.

        Such fleets always run the event-heap loop, and their reports bill
        device time by membership and rebase latencies to each request's
        original arrival.
        """
        return (self.faults is not None and self.faults.enabled) or self.autoscaler is not None


@dataclasses.dataclass(frozen=True)
class FleetReport:
    """Aggregate outcome of one fleet simulation.

    Latency percentiles pool every completed request across replicas;
    throughputs divide fleet totals by the fleet **makespan** (the latest
    replica clock).  ``load_imbalance`` is ``max/mean - 1`` over per-replica
    busy time: 0.0 for a perfectly balanced fleet, 1.0 when the busiest
    replica does twice the average work.  Costs price every replica's
    devices for the full makespan (idle replicas still burn capital and
    idle power) through :class:`~repro.cost.tco.TCOModel`.
    """

    model_name: str
    system_name: str
    tensor_parallel: int
    num_replicas: int
    router: str

    num_requests: int
    completed_requests: int
    rejected_requests: int

    simulated_time: float
    busy_time: float
    prefill_steps: int
    decode_steps: int

    ttft_p50: float
    ttft_p99: float
    tpot_p50: float
    tpot_p99: float
    queue_p50: float
    queue_p99: float

    request_throughput: float
    output_token_throughput: float
    goodput: float
    slo_attainment: float
    load_imbalance: float

    total_device_seconds: float
    energy_joules: float
    cost_usd: float
    cost_per_million_tokens: float

    # Resilience/elasticity outcomes.  A fault-free, fixed-size fleet
    # reports the defaults (availability 1.0, zero counters, peak at the
    # configured size); TTFT/queue percentiles above are *interruption
    # aware* -- retried requests measure from their original arrival, so
    # retry backoff is priced as added queue delay.
    availability: float = 1.0
    replica_failures: int = 0
    retried_requests: int = 0
    failed_requests: int = 0
    wasted_prefill_tokens: int = 0
    lost_output_tokens: int = 0
    peak_replicas: int = 0
    scale_up_events: int = 0
    scale_down_events: int = 0

    replicas: List[ServingReport] = dataclasses.field(default_factory=list)

    @property
    def device_utilization(self) -> float:
        """Fleet-wide fraction of device time spent executing steps.

        Derived from ``total_device_seconds`` so the denominator tracks
        actual membership time in elastic fleets; for a fixed-size fleet it
        equals the classic ``num_replicas * makespan`` wall-clock.
        """
        wall = self.total_device_seconds / self.tensor_parallel if self.tensor_parallel else 0.0
        return self.busy_time / wall if wall > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat headline view for tables and logs."""
        return {
            "replicas": self.num_replicas,
            "completed": self.completed_requests,
            "ttft_p50_s": self.ttft_p50,
            "ttft_p99_s": self.ttft_p99,
            "tpot_p99_s": self.tpot_p99,
            "requests_per_s": self.request_throughput,
            "tokens_per_s": self.output_token_throughput,
            "goodput_rps": self.goodput,
            "slo_attainment": self.slo_attainment,
            "load_imbalance": self.load_imbalance,
            "utilization": self.device_utilization,
            "availability": self.availability,
            "failures": self.replica_failures,
            "retries": self.retried_requests,
            "cost_per_million_tokens_usd": self.cost_per_million_tokens,
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict view, per-replica reports included."""
        data = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name != "replicas"
        }
        data["replicas"] = [report.to_dict() for report in self.replicas]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FleetReport":
        """Rebuild a report from :meth:`to_dict` output."""
        data = dict(data)
        data["replicas"] = [ServingReport.from_dict(entry) for entry in data.get("replicas", [])]
        return cls(**data)

    def to_json(self, **kwargs: object) -> str:
        """Serialize the report to a JSON string."""
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "FleetReport":
        """Rebuild a report from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


@dataclasses.dataclass
class _ResilienceOutcome:
    """What the event-heap loop learned beyond the per-replica reports."""

    num_requests: int
    member_times: List[float]
    availability: float
    replica_failures: int
    retried_requests: int
    failed_requests: int
    wasted_prefill_tokens: int
    lost_output_tokens: int
    peak_replicas: int
    scale_up_events: int
    scale_down_events: int
    original_arrival: Dict[int, float]


class FleetSimulator:
    """Simulates N identical engine replicas of one model behind a router.

    Every replica shares one :class:`StepCostModel` (pass ``step_cost`` to
    share it wider, e.g. across the scenarios of a sweep).  ``router``
    accepts a :class:`RouterPolicy` *instance* to override the configured
    policy -- the equivalence tests use it to send a stateless policy
    through the event-heap loop.
    """

    def __init__(
        self,
        system: SystemSpec,
        model: TransformerConfig,
        fleet: FleetConfig,
        tensor_parallel: int = 1,
        precision: Precision = Precision.FP16,
        step_cost: Optional[StepCostModel] = None,
        tco: Optional[TCOModel] = None,
        router: Optional[RouterPolicy] = None,
    ):
        self.system = system
        self.model = model
        self.fleet = fleet
        self.tensor_parallel = tensor_parallel
        self.precision = precision
        self.tco = tco if tco is not None else TCOModel(system=system)
        self.router = router if router is not None else get_router(fleet.router)
        # One simulator parameterizes every replica: engines share its
        # configuration and, critically, its step-cost model and caches.
        self.simulator = ServingSimulator(
            system=system,
            model=model,
            tensor_parallel=tensor_parallel,
            precision=precision,
            step_cost=step_cost,
            scheduler_config=fleet.scheduler,
            slo=fleet.slo,
            include_lm_head=fleet.include_lm_head,
            max_epoch_steps=fleet.max_epoch_steps,
            arrival_probe_steps=fleet.arrival_probe_steps,
        )

    def run(self, workload: Optional[Union[TraceColumns, Sequence[Request]]] = None) -> FleetReport:
        """Simulate the fleet to completion and aggregate the report.

        ``workload`` defaults to the configured trace; pass
        :class:`TraceColumns` or an explicit request list to reuse a
        generated trace across simulations (requests must carry distinct
        ids; they are processed in arrival order).
        """
        if workload is None:
            columns = self.fleet.trace.generate_columns()
            requests = columns.to_requests()
        elif isinstance(workload, TraceColumns):
            columns = workload
            requests = columns.to_requests()
        else:
            requests = sorted(workload, key=lambda request: (request.arrival_time, request.request_id))
            columns = TraceColumns(
                arrival_times=np.array([request.arrival_time for request in requests], dtype=np.float64),
                prompt_tokens=np.array([request.prompt_tokens for request in requests], dtype=np.int64),
                output_tokens=np.array([request.output_tokens for request in requests], dtype=np.int64),
                tenant_ids=np.zeros(len(requests), dtype=np.int64),
            )
        if not requests:
            raise ConfigurationError("fleet simulation needs at least one request")

        resilient = self.fleet.resilient
        num_replicas = self.fleet.num_replicas
        self.router.reset(num_replicas)
        if not resilient:
            assignment = self.router.assign_batch(columns, num_replicas)
            if assignment is not None:
                engines = [self.simulator.engine() for _ in range(num_replicas)]
                self._run_partitioned(engines, requests, np.asarray(assignment))
                return self._aggregate([self.simulator.report(engine) for engine in engines])

        replica_reports, outcome = self._run_heap(requests, columns.tenant_ids)
        # A fault-free, fixed-size fleet bills num_replicas * makespan: summing
        # per-replica membership instead moves cost in the last bit.
        return self._aggregate(replica_reports, resilience=outcome if resilient else None)

    # -- execution paths ----------------------------------------------------------------

    def _run_partitioned(
        self, engines: List[ReplicaEngine], requests: List[Request], assignment: np.ndarray
    ) -> None:
        """Stateless-router fast path: drain each replica's partition independently."""
        if assignment.shape[0] != len(requests):
            raise ConfigurationError("router assignment must cover every request")
        for request, replica in zip(requests, assignment.tolist()):
            engines[replica].submit(request)
        for engine in engines:
            engine.advance()

    def _run_heap(
        self, requests: List[Request], tenant_ids: np.ndarray
    ) -> Tuple[List[ServingReport], _ResilienceOutcome]:
        """Per-arrival path: one event heap over the whole fleet.

        Runs every fleet whose router needs live replica state, and every
        failure-aware or elastic fleet; :meth:`run` has already reset the
        router.  Events (arrivals and retries, replica crashes and
        recoveries, autoscaler ticks) pop in time order; every up replica
        advances to each event's horizon through fused epochs cut there
        (``advance(until=...)``), the router inspects the resulting replica
        states, and the request lands on the chosen replica.  A crash
        evacuates the replica (:meth:`ReplicaEngine.fail`) and its requests
        re-enter the router under the retry policy; a drain (autoscaler
        scale-down) merely stops new routing and lets the replica finish its
        queue.  A final unbounded advance drains the fleet.

        The :class:`_ResilienceOutcome` is built on every run but used only
        when ``fleet.resilient`` is true; :meth:`run` drops it otherwise.
        """
        fleet = self.fleet
        faults = fleet.faults if fleet.faults is not None and fleet.faults.enabled else None
        retry = fleet.retry
        scaler = fleet.autoscaler
        max_slots = max(fleet.num_replicas, scaler.max_replicas if scaler is not None else 0)

        engines: List[Optional[ReplicaEngine]] = [None] * max_slots
        member = [False] * max_slots
        up = [True] * max_slots
        draining = [False] * max_slots
        drain_asked = [0.0] * max_slots
        member_since = [0.0] * max_slots
        member_time = [0.0] * max_slots
        down_since = [0.0] * max_slots
        down_time = [0.0] * max_slots
        traces = [faults.replica_trace(slot) for slot in range(max_slots)] if faults else None

        tenants = {
            request.request_id: int(tenant) for request, tenant in zip(requests, tenant_ids)
        }
        original_arrival: Dict[int, float] = {}
        attempts: Dict[int, int] = {}
        parked: List[Request] = []
        counters = {
            "failures": 0, "retries": 0, "failed": 0, "wasted_prefill": 0,
            "lost_output": 0, "scale_ups": 0, "scale_downs": 0,
        }

        # (time, kind, seq, payload) -- the unique seq keeps payloads out of
        # heap comparisons and makes same-time ordering deterministic.
        heap: List[Tuple[float, int, int, object]] = [
            (request.arrival_time, _EVENT_ARRIVAL, index, request)
            for index, request in enumerate(requests)
        ]
        heapq.heapify(heap)
        seq = itertools.count(len(requests))

        def join(slot: int, now: float) -> None:
            if engines[slot] is None:
                engines[slot] = self.simulator.engine()
            member[slot] = True
            draining[slot] = False
            member_since[slot] = now
            if not up[slot]:
                down_since[slot] = now

        def leave(slot: int, now: float) -> None:
            member[slot] = False
            member_time[slot] += max(now - member_since[slot], 0.0)
            if not up[slot]:
                down_time[slot] += max(now - down_since[slot], 0.0)

        def active_members() -> List[int]:
            return [slot for slot in range(max_slots) if member[slot] and not draining[slot]]

        def routable_slots() -> List[int]:
            return [slot for slot in active_members() if up[slot]]

        def settled() -> int:
            done = counters["failed"]
            for engine in engines:
                if engine is not None:
                    done += len(engine.completed) + len(engine.scheduler.rejected)
            return done

        def finish_drains() -> None:
            # A draining replica leaves once its queue empties; membership
            # (and its device-time bill) ends when the work does, never
            # before the drain was requested.
            for slot in range(max_slots):
                if member[slot] and draining[slot]:
                    engine = engines[slot]
                    if engine is not None and engine.drained:
                        leave(slot, max(drain_asked[slot], engine.now))
                        draining[slot] = False

        def route(request: Request, now: float) -> None:
            slots = routable_slots()
            if not slots:
                parked.append(request)
                return
            choices = [engines[slot] for slot in slots]
            pick = self.router.select(request, tenants.get(request.request_id, 0), choices)
            engines[slots[pick]].submit(request)

        def lose(request: Request, now: float) -> None:
            rid = request.request_id
            tries = attempts.get(rid, 1)
            if tries >= retry.max_attempts:
                counters["failed"] += 1
                return
            original_arrival.setdefault(rid, request.arrival_time)
            attempts[rid] = tries + 1
            counters["retries"] += 1
            retry_at = now + retry.delay(tries)
            clone = dataclasses.replace(request, arrival_time=retry_at)
            heapq.heappush(heap, (retry_at, _EVENT_ARRIVAL, next(seq), clone))

        for slot in range(fleet.num_replicas):
            join(slot, 0.0)
        peak = fleet.num_replicas

        if faults:
            for slot in range(max_slots):
                trace = traces[slot]
                if not trace.exhausted:
                    heapq.heappush(heap, (trace.up_duration(), _EVENT_DOWN, next(seq), slot))
        if scaler is not None:
            heapq.heappush(heap, (scaler.interval, _EVENT_SCALE, next(seq), None))

        total = len(requests)
        while heap:
            now, kind, _, payload = heapq.heappop(heap)
            for slot in range(max_slots):
                engine = engines[slot]
                if engine is not None and up[slot]:
                    engine.advance(until=now)
            finish_drains()

            if kind == _EVENT_ARRIVAL:
                route(payload, now)
            elif kind == _EVENT_DOWN:
                slot = payload
                trace = traces[slot]
                trace.failures += 1
                heapq.heappush(heap, (now + trace.repair_duration(), _EVENT_UP, next(seq), slot))
                if up[slot]:
                    up[slot] = False
                    if member[slot]:
                        down_since[slot] = now
                    engine = engines[slot]
                    if engine is not None:
                        lost_states, lost_queue = engine.fail()
                        if member[slot] or lost_states or lost_queue:
                            counters["failures"] += 1
                        for state in lost_states:
                            counters["wasted_prefill"] += state.request.prompt_tokens
                            counters["lost_output"] += state.generated
                            lose(state.request, now)
                        for request in lost_queue:
                            lose(request, now)
                    elif member[slot]:
                        counters["failures"] += 1
            elif kind == _EVENT_UP:
                slot = payload
                if not up[slot]:
                    up[slot] = True
                    if member[slot]:
                        down_time[slot] += max(now - down_since[slot], 0.0)
                trace = traces[slot] if traces else None
                if trace is not None and not trace.exhausted and settled() < total:
                    heapq.heappush(heap, (now + trace.up_duration(), _EVENT_DOWN, next(seq), slot))
                if parked:
                    for request in parked:
                        heapq.heappush(heap, (now, _EVENT_ARRIVAL, next(seq), request))
                    parked.clear()
            elif kind == _EVENT_SCALE:
                serving = active_members()
                routable = routable_slots()
                queued = sum(engines[slot].queued_requests for slot in routable) + len(parked)
                depth = queued / len(routable) if routable else float(1 + queued)
                attainment = self._window_attainment(engines, now - scaler.interval)
                decision = scaler.decide(depth, attainment)
                if decision > 0 and len(serving) < scaler.max_replicas:
                    candidates = [slot for slot in range(max_slots) if member[slot] and draining[slot]]
                    candidates += sorted(
                        (slot for slot in range(max_slots) if not member[slot]),
                        key=lambda slot: (not up[slot], slot),
                    )
                    slot = candidates[0]
                    if member[slot]:
                        draining[slot] = False  # cancel an in-progress drain
                    else:
                        join(slot, now)
                    counters["scale_ups"] += 1
                    peak = max(peak, len(serving) + 1)
                elif decision < 0 and len(serving) > scaler.min_replicas:
                    slot = serving[-1]
                    draining[slot] = True
                    drain_asked[slot] = now
                    counters["scale_downs"] += 1
                if settled() < total:
                    heapq.heappush(heap, (now + scaler.interval, _EVENT_SCALE, next(seq), None))

            if settled() >= total and not parked:
                break

        for slot in range(max_slots):
            engine = engines[slot]
            if engine is not None and up[slot]:
                engine.advance()
        finish_drains()
        if parked:  # defensive: no replica ever came back for them
            counters["failed"] += len(parked)
            parked.clear()

        makespan = max(
            (engine.now for engine in engines if engine is not None), default=0.0
        )
        for slot in range(max_slots):
            if member[slot]:
                leave(slot, makespan)

        report_slots = [slot for slot in range(max_slots) if engines[slot] is not None]
        replica_reports = [self.simulator.report(engines[slot]) for slot in report_slots]
        total_member = sum(member_time[slot] for slot in report_slots)
        total_down = sum(down_time[slot] for slot in report_slots)
        outcome = _ResilienceOutcome(
            num_requests=total,
            member_times=[member_time[slot] for slot in report_slots],
            availability=1.0 - total_down / total_member if total_member > 0 else 1.0,
            replica_failures=counters["failures"],
            retried_requests=counters["retries"],
            failed_requests=counters["failed"],
            wasted_prefill_tokens=counters["wasted_prefill"],
            lost_output_tokens=counters["lost_output"],
            peak_replicas=peak,
            scale_up_events=counters["scale_ups"],
            scale_down_events=counters["scale_downs"],
            original_arrival=original_arrival,
        )
        return replica_reports, outcome

    def _window_attainment(
        self, engines: Sequence[Optional[ReplicaEngine]], window_start: float
    ) -> Optional[float]:
        """SLO attainment of completions after ``window_start`` (``None`` if none).

        Replica-local TTFT/TPOT -- what a production controller observes --
        against the fleet SLO.  Per-engine ``completed`` lists are in
        retirement order, so each scan walks back only through the window.
        """
        ttfts: List[float] = []
        tpots: List[float] = []
        for engine in engines:
            if engine is None:
                continue
            for state in reversed(engine.completed):
                if state.finish_time is None or state.finish_time <= window_start:
                    break
                ttfts.append(state.first_token_time - state.request.arrival_time)
                decode_tokens = state.request.output_tokens - 1
                tpots.append(
                    (state.finish_time - state.first_token_time) / decode_tokens
                    if decode_tokens > 0
                    else 0.0
                )
        if not ttfts:
            return None
        met = np.count_nonzero(
            self.fleet.slo.met_mask(np.asarray(ttfts), np.asarray(tpots))
        )
        return float(met) / len(ttfts)

    # -- aggregation --------------------------------------------------------------------

    def _aggregate(
        self,
        replica_reports: List[ServingReport],
        resilience: Optional[_ResilienceOutcome] = None,
    ) -> FleetReport:
        """Pool per-replica reports into the fleet view.

        With a :class:`_ResilienceOutcome` the pooled TTFT/queue metrics are
        re-based to each request's *original* arrival (retry backoff shows
        up as queue delay) and device time bills actual membership instead
        of ``num_replicas * makespan``; without one the computation is
        bit-identical to the pre-fault fleet.
        """
        fleet = self.fleet
        makespan = max(report.simulated_time for report in replica_reports)
        busy = np.array([report.busy_time for report in replica_reports], dtype=np.float64)
        completed = sum(report.completed_requests for report in replica_reports)
        output_tokens = sum(
            metrics.output_tokens for report in replica_reports for metrics in report.per_request
        )

        per_request: List[RequestMetrics] = [
            metrics for report in replica_reports for metrics in report.per_request
        ]
        if per_request:
            ttfts = np.fromiter((m.ttft for m in per_request), dtype=np.float64, count=len(per_request))
            tpots = np.fromiter((m.tpot for m in per_request), dtype=np.float64, count=len(per_request))
            queues = np.fromiter(
                (m.queue_time for m in per_request), dtype=np.float64, count=len(per_request)
            )
            if resilience is not None and resilience.original_arrival:
                # A retried request's replica-local clock starts at its last
                # re-submission; shift it back to the original arrival.
                first = resilience.original_arrival
                shifts = np.fromiter(
                    (m.arrival_time - first.get(m.request_id, m.arrival_time) for m in per_request),
                    dtype=np.float64,
                    count=len(per_request),
                )
                ttfts = ttfts + shifts
                queues = queues + shifts
            good = int(np.count_nonzero(fleet.slo.met_mask(ttfts, tpots)))
            percentiles = {
                "ttft_p50": percentile(ttfts, 50),
                "ttft_p99": percentile(ttfts, 99),
                "tpot_p50": percentile(tpots, 50),
                "tpot_p99": percentile(tpots, 99),
                "queue_p50": percentile(queues, 50),
                "queue_p99": percentile(queues, 99),
            }
        else:
            good = 0
            percentiles = {
                "ttft_p50": 0.0,
                "ttft_p99": 0.0,
                "tpot_p50": 0.0,
                "tpot_p99": 0.0,
                "queue_p50": 0.0,
                "queue_p99": 0.0,
            }

        mean_busy = float(busy.mean())
        load_imbalance = float(busy.max() / mean_busy - 1.0) if mean_busy > 0 else 0.0

        # Cost the whole fleet for the whole makespan: every replica's TP
        # group exists (and burns idle power) until the last replica drains.
        # Elastic fleets bill each replica only for its membership time.
        energy_model = self.tco.energy_model
        if resilience is None:
            total_device_seconds = fleet.num_replicas * self.tensor_parallel * makespan
            on_times = [makespan] * len(replica_reports)
        else:
            total_device_seconds = self.tensor_parallel * sum(resilience.member_times)
            on_times = resilience.member_times
        energy_joules = sum(
            energy_model.device_energy(
                busy_time=report.busy_time,
                waiting_time=max(on_time - report.busy_time, 0.0),
                num_devices=self.tensor_parallel,
            )
            for report, on_time in zip(replica_reports, on_times)
        )
        cost_usd = self.tco.device_seconds_cost(total_device_seconds, energy_joules)
        cost_per_million_tokens = cost_usd / output_tokens * 1e6 if output_tokens > 0 else 0.0

        if resilience is None:
            num_requests = sum(report.num_requests for report in replica_reports)
            extras = {"peak_replicas": fleet.num_replicas}
        else:
            num_requests = resilience.num_requests
            extras = {
                "availability": resilience.availability,
                "replica_failures": resilience.replica_failures,
                "retried_requests": resilience.retried_requests,
                "failed_requests": resilience.failed_requests,
                "wasted_prefill_tokens": resilience.wasted_prefill_tokens,
                "lost_output_tokens": resilience.lost_output_tokens,
                "peak_replicas": resilience.peak_replicas,
                "scale_up_events": resilience.scale_up_events,
                "scale_down_events": resilience.scale_down_events,
            }

        return FleetReport(
            model_name=self.model.name,
            system_name=self.system.name,
            tensor_parallel=self.tensor_parallel,
            num_replicas=fleet.num_replicas,
            router=self.router.name,
            num_requests=num_requests,
            completed_requests=completed,
            rejected_requests=sum(report.rejected_requests for report in replica_reports),
            simulated_time=makespan,
            busy_time=float(busy.sum()),
            prefill_steps=sum(report.prefill_steps for report in replica_reports),
            decode_steps=sum(report.decode_steps for report in replica_reports),
            request_throughput=completed / makespan if makespan > 0 else 0.0,
            output_token_throughput=output_tokens / makespan if makespan > 0 else 0.0,
            goodput=good / makespan if makespan > 0 else 0.0,
            slo_attainment=good / completed if completed else 0.0,
            load_imbalance=load_imbalance,
            total_device_seconds=total_device_seconds,
            energy_joules=float(energy_joules),
            cost_usd=float(cost_usd),
            cost_per_million_tokens=float(cost_per_million_tokens),
            replicas=replica_reports,
            **percentiles,
            **extras,
        )
