"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, so the same seed gives
the same inputs, and runs in *rounds*: :meth:`setup` (timed as one
``setup_s`` sample), :meth:`run` (the timed region), :meth:`verify`
(untimed: output digest and correctness checks) and :meth:`teardown`.  A
round returns a :class:`Round` with the work it did and the host latency of
each operation.

Why these four (see README.md for the layer map):

* ``sweep_cold`` -- one cold batched generation through ``SweepRunner.run``:
  the decode-bottleneck megasweep grid plus a training slice that keeps its
  infeasible corners.  ``sweep.*``, ``perf.batched`` and ``comm.fabric`` do
  the work; serving, the disk store and the service do none.
* ``service_mix`` -- a closed loop of one HTTP client submitting registered
  paper studies to an in-process ``repro serve``: LRU resubmissions,
  studies read from a pre-seeded disk store, and fresh studies priced and
  written to it.  The only workload where ``service``, ``studies`` and
  ``sweep.diskstore`` work.
* ``fleet_diurnal`` -- an 8-tenant diurnal trace with log-normal lengths on
  8 round-robin replicas (the partitioned fast path), near saturation at
  the diurnal peak.  ``core.stepcost`` and ``serving.scheduler`` work.
* ``fleet_faults`` -- 4 replicas behind the stateful ``least_kv_load``
  router with seeded crashes and retries: the event-heap loop, per-arrival
  routing, evacuation and re-prefill.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ledger import canonical, digest
from repro.hardware.cluster import build_system, preset_cluster
from repro.models.zoo import get_model
from repro.service import InMemoryJobStore, ServiceApi, ServiceRegistry, StudyService
from repro.service.http import make_server
from repro.serving import (
    FaultConfig,
    FleetConfig,
    FleetSimulator,
    FleetTraceConfig,
    LengthDistribution,
    RetryPolicy,
    SchedulerConfig,
    TenantTrace,
    TraceConfig,
)
from repro.studies.registry import get_study
from repro.sweep import DiskResultStore, Scenario, SweepRunner, clear_engine_cache, evaluate_scenario
from repro.sweep.batchplan import clear_plan_caches

#: Scratch space for the service workload's disk store (inside the checkout).
WORK_DIR = Path(__file__).resolve().parent / "_work"


@dataclasses.dataclass
class Round:
    """What one round's timed region did.

    Attributes:
        timed_s: Host seconds of the timed region.
        work: Units of work done (scenarios, jobs, or simulated requests).
        op_latencies_s: Host latency of each operation (a generation, a
            job from submit to done, or a fleet simulation).
        first_row_s: Submit to first streamed row, per job (service only).
        attempted / failed: Operations tried and operations that failed a
            check (filled in by :meth:`Workload.verify`).
        digest: SHA-256 of the round's canonical outputs (empty when the
            round was not fully verified).
        named: The named values this round measured (``sim_*``,
            ``validation_mape_pct``, ...).
        extras: Program-side counters for the per-layer metrics.
        outputs: The round's raw outputs, for :meth:`Workload.verify` only.
    """

    timed_s: float
    work: int
    op_latencies_s: List[float]
    first_row_s: List[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    named: Dict[str, float] = dataclasses.field(default_factory=dict)
    extras: Dict[str, float] = dataclasses.field(default_factory=dict)
    outputs: object = None


def _go_cold() -> None:
    """Drop every process-level cache the sweep layer warms."""
    clear_engine_cache()
    clear_plan_caches()


def _runner_extras(runner: SweepRunner) -> Dict[str, float]:
    stats = runner.stats
    return {
        "evaluations": stats.evaluations,
        "lru_hits": stats.cache_hits - stats.disk_hits,
        "batched_scenarios": stats.batched_scenarios,
    }


class Workload:
    """One seeded workload; subclasses fill in the four round phases."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale

    def _scaled(self, count: int, minimum: int = 1) -> int:
        return max(minimum, int(round(count * self.scale)))

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Round:
        raise NotImplementedError

    def verify(self, round_: Round, full: bool = True) -> None:
        """Check the round's outputs; ``full`` also digests them."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def close(self) -> None:
        """Release what outlives the rounds (called once, after the last)."""


# ---------------------------------------------------------------------------
# sweep_cold
# ---------------------------------------------------------------------------

_ZOO = (
    "GPT-7B", "GPT-22B", "GPT-175B", "GPT-310B", "GPT-530B", "GPT-1008B",
    "Llama2-7B", "Llama2-13B", "Llama2-70B",
)
_CATALOG = ("A100", "H100", "B200", "TPUV4")
_GPT_ZOO = ("GPT-7B", "GPT-22B", "GPT-175B", "GPT-310B", "GPT-530B", "GPT-1008B")
_TRAINING_CLUSTERS = ("A100-HDR", "H100-NDR", "H200-NDR", "B200-NDR")
_CLUSTER_DEVICES = 1024
#: TP x PP degrees of the training slice (DP fills the 1024 devices).  PP=35
#: divides no GPT layer count but GPT-530B's (105), and its DP degree rarely
#: divides the global batch, so those corners stay infeasible on purpose.
_TRAINING_TP = (2, 4, 8)
_TRAINING_PP = (1, 4, 8, 16, 35)
_GLOBAL_BATCH = 2048


class SweepCold(Workload):
    """One cold generation: decode-bottleneck grid plus a training slice."""

    name = "sweep_cold"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        rng = random.Random(seed)
        self.kv_base = rng.randrange(32, 480)
        self.kv_count = self._scaled(16)
        # Fixed, not drawn: the global batch decides how many training corners
        # are infeasible and how many micro-batches each one prices, so a
        # drawn value moved a round's cost by ~12% from seed to seed.
        self.global_batch = _GLOBAL_BATCH
        self.models = _ZOO if scale >= 1.0 else _ZOO[:2]
        self.gpt_models = _GPT_ZOO if scale >= 1.0 else ("GPT-7B", "GPT-530B")
        self.check_sample_rng = random.Random(seed + 1)
        self.runner: Optional[SweepRunner] = None
        self.scenarios: List[Scenario] = []
        self.clusters = None

    def _grid(self) -> List[Scenario]:
        # Fresh Scenario objects every round: cache keys memoize on them.
        decode = [
            Scenario.decode_bottlenecks(
                accelerator, model, batch_size=batch, kv_len=self.kv_base + kv, tensor_parallel=tp
            )
            for model in self.models
            for accelerator in _CATALOG
            for tp in (1, 2, 4, 8)
            for batch in (1, 4)
            for kv in range(self.kv_count)
        ]
        training = [
            Scenario.training(
                cluster,
                model,
                f"{_CLUSTER_DEVICES // (tp * pp)}-{tp}-{pp}-1",
                global_batch_size=self.global_batch,
                recompute=recompute,
            )
            for model in self.gpt_models
            for cluster in self.clusters
            for tp in _TRAINING_TP
            for pp in _TRAINING_PP
            for recompute in ("selective", "full")
        ]
        return decode + training

    def setup(self) -> None:
        _go_cold()
        self.clusters = [preset_cluster(name, num_devices=_CLUSTER_DEVICES) for name in _TRAINING_CLUSTERS]
        self.scenarios = self._grid()
        self.runner = SweepRunner(
            executor="serial", batch_planning=True, capture_errors=True, cache_size=2 * len(self.scenarios)
        )

    def run(self) -> Round:
        start = time.perf_counter()
        results = self.runner.run(self.scenarios)
        elapsed = time.perf_counter() - start
        return Round(
            timed_s=elapsed,
            work=len(results),
            op_latencies_s=[elapsed],
            extras=_runner_extras(self.runner),
            outputs=results,
        )

    def verify(self, round_: Round, full: bool = True) -> None:
        results = round_.outputs
        failed = 0
        for result in results:
            scenario = result.scenario
            # The only infeasible corners of this grid: PP not dividing the
            # layer count, or DP not dividing the global batch.  They must
            # raise; everything else must price.
            parallelism = scenario.parallelism
            infeasible = parallelism is not None and (
                scenario.model.num_layers % parallelism.pipeline_parallel != 0
                or scenario.global_batch_size % parallelism.data_parallel != 0
            )
            if infeasible != (result.error is not None):
                failed += 1
        # Spot-check batched values against the one-at-a-time reference path.
        for result in self.check_sample_rng.sample(results, min(24, len(results))):
            if result.error is None and canonical(evaluate_scenario(result.scenario)) != canonical(result.value):
                failed += 1
        if full:  # the digest costs about half a round here
            round_.digest = digest([result.error, result.value] for result in results)
        round_.attempted = len(results)
        round_.failed = failed
        round_.outputs = None


# ---------------------------------------------------------------------------
# service_mix
# ---------------------------------------------------------------------------

#: Study families of the service mix: ``name -> (param, candidate values)``.
#: Each job varies one builder parameter, so every variant is a distinct
#: study with the cost of its family.
_FAMILIES: Dict[str, Tuple[Optional[str], List[object]]] = {
    "table1_training_validation": (None, [None]),
    "table2_inference_validation": (None, [None]),
    "table4_gemm_bottlenecks": ("prompt_tokens", list(range(64, 512))),
    "fig3_gemv_validation": ("seed", list(range(1, 10_000))),
    "fig4_memory_breakdown": ("device_memory_gb", [40.0, 48.0, 64.0, 80.0, 96.0, 120.0, 141.0, 192.0]),
    "fig5_gpu_generation_scaling": ("virtual_pipeline_stages", [1, 2, 3, 4, 6, 12]),
    "fig6_technology_node_scaling": ("global_batch_size", [64 * k for k in range(4, 64)]),
    "fig7_bound_breakdown": ("global_batch_size", [64 * k for k in range(4, 64)]),
    "fig8_inference_boundedness": ("prompt_tokens", list(range(64, 1024))),
    "fig9_memory_technology_scaling": ("prompt_tokens", list(range(64, 1024))),
    "serving_latency_throughput_frontier": ("seed", list(range(1, 10_000))),
}
#: Jobs per family priced fresh in the timed region, and pre-seeded on disk.
_FRESH = {
    "table1_training_validation": 1, "table4_gemm_bottlenecks": 5, "fig3_gemv_validation": 3,
    "fig4_memory_breakdown": 2, "fig5_gpu_generation_scaling": 3, "fig6_technology_node_scaling": 2,
    "fig7_bound_breakdown": 2, "fig8_inference_boundedness": 5, "fig9_memory_technology_scaling": 5,
    "serving_latency_throughput_frontier": 3,
}
_DISK = {
    "table2_inference_validation": 1, "table4_gemm_bottlenecks": 4, "fig3_gemv_validation": 3,
    "fig4_memory_breakdown": 2, "fig5_gpu_generation_scaling": 3, "fig6_technology_node_scaling": 2,
    "fig7_bound_breakdown": 1, "fig8_inference_boundedness": 4, "fig9_memory_technology_scaling": 4,
    "serving_latency_throughput_frontier": 3,
}
_RESUBMISSIONS = 42
_SERVING_REQUESTS = 32
_VALIDATION_STUDIES = ("table1_training_validation", "table2_inference_validation")


def _submission(name: str, value: object) -> Dict[str, object]:
    param = _FAMILIES[name][0]
    params: Dict[str, object] = {} if param is None else {param: value}
    if name == "serving_latency_throughput_frontier":
        params["num_requests"] = _SERVING_REQUESTS
    return {"study": name, "params": params}


class _Client:
    """The closed-loop client: one request, one connection at a time."""

    def __init__(self, port: int) -> None:
        self.port = port

    def _request(self, method: str, path: str, body: Optional[bytes] = None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        return connection, connection.getresponse()

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        connection, response = self._request(method, path, body)
        try:
            return response.status, response.read()
        finally:
            connection.close()

    def job(self, document: Dict[str, object]) -> Tuple[str, float, float, int, str]:
        """Submit, stream the events to the end: ``(id, first_row_s, done_s, rows, state)``."""
        started = time.perf_counter()
        status, body = self.call("POST", "/studies", json.dumps(document).encode("utf-8"))
        if status != 202:
            raise RuntimeError(f"submission of {document} failed with {status}: {body[:200]!r}")
        job_id = json.loads(body)["job"]["id"]
        connection, response = self._request("GET", f"/jobs/{job_id}/events")
        first_row = None
        rows = 0
        state = "missing"
        try:
            for line in response:
                event = json.loads(line)
                if event["event"] == "row":
                    rows += 1
                    if first_row is None:
                        first_row = time.perf_counter() - started
                elif event["event"] == "end":
                    state = event["state"]
                    break
        finally:
            connection.close()
        done = time.perf_counter() - started
        return job_id, first_row if first_row is not None else done, done, rows, state


class ServiceMix(Workload):
    """A closed-loop client against an in-process ``repro serve``."""

    name = "service_mix"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        rng = random.Random(seed)
        fresh_counts = {name: self._scaled(count) for name, count in _FRESH.items()}
        disk_counts = {name: self._scaled(count) for name, count in _DISK.items()}
        fresh: List[Dict[str, object]] = []
        disk: List[Dict[str, object]] = []
        for name, (_, candidates) in _FAMILIES.items():
            wanted = fresh_counts.get(name, 0) + disk_counts.get(name, 0)
            values = rng.sample(candidates, wanted)
            fresh += [_submission(name, value) for value in values[: fresh_counts.get(name, 0)]]
            disk += [_submission(name, value) for value in values[fresh_counts.get(name, 0):]]
        self.disk_submissions = disk
        self.seeded: Optional[Path] = None
        # The seed draws each job's parameter; the order of the families
        # and the resubmission slots are fixed, so every seed puts the cold
        # first use of each engine on the same kind of study.
        shape = random.Random(0)
        sequence = fresh + disk
        shape.shuffle(sequence)
        # Each resubmission goes somewhere after its original.
        for _ in range(self._scaled(_RESUBMISSIONS)):
            original = shape.randrange(len(sequence))
            sequence.insert(shape.randrange(original + 1, len(sequence) + 1), sequence[original])
        self.sequence = sequence
        self.workdir: Optional[Path] = None
        self.server = None
        self.thread: Optional[threading.Thread] = None
        self.service: Optional[StudyService] = None
        self.runner: Optional[SweepRunner] = None
        self.client: Optional[_Client] = None

    def setup(self) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        if self.seeded is None:
            # Pre-seed a store through a different runner once; every round
            # starts from a copy of it.
            self.seeded = Path(tempfile.mkdtemp(prefix="seeded-", dir=WORK_DIR))
            seeding_runner = SweepRunner(disk_cache=DiskResultStore(root=self.seeded))
            for document in self.disk_submissions:
                get_study(document["study"], **document["params"]).run(runner=seeding_runner)
        self.workdir = Path(tempfile.mkdtemp(prefix="service-", dir=WORK_DIR))
        shutil.copytree(self.seeded, self.workdir, dirs_exist_ok=True)
        # Drop the process caches so the service's fresh studies start cold.
        _go_cold()
        self.runner = SweepRunner(cache_size=65536, disk_cache=DiskResultStore(root=self.workdir))
        registry = ServiceRegistry(runner=self.runner, jobs=InMemoryJobStore(), workers=1)
        self.service = StudyService(registry)
        self.server = make_server(ServiceApi(self.service), port=0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, name="perfbench-http"
        )
        self.thread.start()
        self.client = _Client(self.server.server_address[1])

    def run(self) -> Round:
        latencies: List[float] = []
        first_rows: List[float] = []
        jobs: List[Tuple[str, int, str]] = []
        start = time.perf_counter()
        for document in self.sequence:
            job_id, first_row, done, rows, state = self.client.job(document)
            latencies.append(done)
            first_rows.append(first_row)
            jobs.append((job_id, rows, state))
        elapsed = time.perf_counter() - start
        extras = _runner_extras(self.runner)
        records = self.service.jobs.list()
        extras["queue_wait_ms"] = statistics.median(
            (job.started_at - job.submitted_at) * 1e3 for job in records if job.started_at is not None
        )
        extras["row_events"] = sum(rows for _, rows, _ in jobs)
        return Round(
            timed_s=elapsed,
            work=len(jobs),
            op_latencies_s=latencies,
            first_row_s=first_rows,
            extras=extras,
            outputs=jobs,
        )

    def verify(self, round_: Round, full: bool = True) -> None:
        failed = 0
        tables: List[object] = []
        by_submission: Dict[str, object] = {}
        relative_errors: List[float] = []
        for document, (job_id, rows, state) in zip(self.sequence, round_.outputs):
            status, body = self.client.call("GET", f"/jobs/{job_id}/table.json")
            table = json.loads(body) if status == 200 else None
            total = self.service.job(job_id).total_scenarios
            key = json.dumps(document, sort_keys=True)
            first_serving = key not in by_submission
            # A resubmission (LRU) or disk read must serve the very table
            # the first pricing produced.
            if state != "done" or rows != total or table is None or by_submission.setdefault(key, table) != table:
                failed += 1
            tables.append([document, table])
            if document["study"] in _VALIDATION_STUDIES and table is not None and first_serving:
                relative_errors += [abs(value) for value in table["columns"]["relative_error_%"]]
        round_.named["validation_mape_pct"] = (
            sum(relative_errors) / len(relative_errors) if relative_errors else 0.0
        )
        round_.digest = digest(tables)
        round_.attempted = len(round_.outputs)
        round_.failed = failed
        round_.outputs = None

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
            self.server = None
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def close(self) -> None:
        if self.seeded is not None:
            shutil.rmtree(self.seeded, ignore_errors=True)
            self.seeded = None
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # missing, or another run still uses it


# ---------------------------------------------------------------------------
# fleet workloads
# ---------------------------------------------------------------------------


class _FleetWorkload(Workload):
    """Shared round structure: generate the trace, simulate, check accounting."""

    def config(self) -> FleetConfig:
        raise NotImplementedError

    def setup(self) -> None:
        self.fleet = self.config()
        self.simulator = FleetSimulator(
            system=build_system("A100", num_devices=1), model=get_model("Llama2-7B"), fleet=self.fleet
        )

    def run(self) -> Round:
        start = time.perf_counter()
        columns = self.fleet.trace.generate_columns()
        report = self.simulator.run(columns)
        elapsed = time.perf_counter() - start
        step_cost = self.simulator.simulator.step_cost
        return Round(
            timed_s=elapsed,
            work=report.num_requests,
            op_latencies_s=[elapsed],
            extras={
                "stepcost_hits": step_cost.cache_hits,
                "stepcost_misses": step_cost.cache_misses,
                "engine_steps": report.prefill_steps + report.decode_steps,
                "retried_requests": report.retried_requests,
                "wasted_prefill_tokens": report.wasted_prefill_tokens,
            },
            outputs=(len(columns), report),
        )

    def verify(self, round_: Round, full: bool = True) -> None:
        submitted, report = round_.outputs
        accounted = report.completed_requests + report.rejected_requests + report.failed_requests
        round_.digest = digest([report])
        round_.attempted = submitted
        round_.failed = submitted if accounted != submitted or report.num_requests != submitted else 0
        round_.named["sim_ttft_p99_s"] = report.ttft_p99
        round_.named["sim_goodput_rps"] = report.goodput
        round_.outputs = None


#: Diurnal rate multipliers of one cycle (peak 1.6x the mean).
_DIURNAL = (0.5, 0.8, 1.4, 1.6, 1.2, 0.5)


class FleetDiurnal(_FleetWorkload):
    """8 tenants, log-normal lengths, 8 round-robin replicas, faults off."""

    name = "fleet_diurnal"
    tenants = 8
    requests = 4000
    #: Mean per-tenant rate, sized so the diurnal peak runs near saturation.
    rate = 15.0

    def config(self) -> FleetConfig:
        per_tenant = self._scaled(self.requests) // self.tenants
        # One full diurnal cycle per round.
        period = per_tenant / self.rate
        tenants = tuple(
            TenantTrace(
                trace=TraceConfig(
                    rate=self.rate,
                    num_requests=per_tenant,
                    prompt_lengths=LengthDistribution.lognormal(256, 0.8, minimum=16, maximum=2048),
                    output_lengths=LengthDistribution.lognormal(48, 0.6, minimum=4, maximum=256),
                    seed=self.seed * 1000 + index,
                ),
                name=f"tenant-{index}",
                diurnal=_DIURNAL,
                period=period,
            )
            for index in range(self.tenants)
        )
        return FleetConfig(
            trace=FleetTraceConfig(tenants=tenants),
            num_replicas=8,
            router="round_robin",
            scheduler=SchedulerConfig(max_batch_size=128, max_prefill_requests=32),
        )


class FleetFaults(_FleetWorkload):
    """4 least-KV-load replicas with seeded crashes and retries."""

    name = "fleet_faults"
    requests = 3000
    rate = 40.0

    def config(self) -> FleetConfig:
        return FleetConfig(
            trace=TraceConfig(
                rate=self.rate,
                num_requests=self._scaled(self.requests),
                prompt_lengths=LengthDistribution.lognormal(192, 0.7, minimum=16, maximum=2048),
                output_lengths=LengthDistribution.lognormal(32, 0.5, minimum=4, maximum=128),
                seed=self.seed,
            ),
            num_replicas=4,
            router="least_kv_load",
            scheduler=SchedulerConfig(max_batch_size=64, max_prefill_requests=16),
            faults=FaultConfig(mtbf=15.0, mttr=3.0, seed=self.seed),
            retry=RetryPolicy(max_attempts=3, backoff=0.5),
        )


WORKLOADS = {cls.name: cls for cls in (SweepCold, ServiceMix, FleetDiurnal, FleetFaults)}
