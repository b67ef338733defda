"""Which layer entry points the traced run wraps, and the per-layer metrics.

Each span wraps one public entry point at the attribute its caller looks it
up through, so the program itself is unchanged.  The span names follow the
package layout (``sweep.batchplan``, ``core.stepcost``, ...); the per-layer
metrics in :data:`PER_LAYER` are derived from one traced round's spans and
counters plus the counters the program already keeps (``SweepStats``,
``StepCostModel.cache_hits``, ``FleetReport``), which the workloads pass in
as ``extras``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from tracer import Patches, Recorder, Trace

#: ``(name, unit, better)`` of every per-layer metric, in report order.
#: Counts of work done are "lower" (less work for the same result) except
#: the ones that count work saved or served.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sweep.scenario.keyhash_s", "s", "lower"),
    ("sweep.scenario.keys_per_s", "1/s", "higher"),
    ("sweep.batchplan.plan_s", "s", "lower"),
    ("sweep.batchplan.price_s", "s", "lower"),
    ("sweep.batchplan.scatter_s", "s", "lower"),
    ("sweep.batchplan.fallback_s", "s", "lower"),
    ("sweep.batchplan.batched_scenarios", "count", "higher"),
    ("perf.batched.gemm_batch_s", "s", "lower"),
    ("perf.batched.gemm_calls", "count", "lower"),
    ("perf.batched.gemm_rows", "count", "lower"),
    ("comm.fabric.collective_batch_s", "s", "lower"),
    ("comm.fabric.collective_rows", "count", "lower"),
    ("sweep.runner.self_s", "s", "lower"),
    ("sweep.runner.evaluations", "count", "lower"),
    ("sweep.runner.lru_hits", "count", "higher"),
    ("sweep.diskstore.get_s", "s", "lower"),
    ("sweep.diskstore.put_s", "s", "lower"),
    ("sweep.diskstore.hits", "count", "higher"),
    ("sweep.diskstore.misses", "count", "lower"),
    ("sweep.diskstore.puts", "count", "lower"),
    ("studies.study.expand_s", "s", "lower"),
    ("studies.study.extract_s", "s", "lower"),
    ("service.submit_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.http_self_s", "s", "lower"),
    ("service.row_events", "count", "higher"),
    ("serving.request.trace_gen_s", "s", "lower"),
    ("serving.router.route_s", "s", "lower"),
    ("serving.router.route_calls", "count", "lower"),
    ("core.stepcost.prefill_s", "s", "lower"),
    ("core.stepcost.prefill_calls", "count", "lower"),
    ("core.stepcost.decode_run_s", "s", "lower"),
    ("core.stepcost.decode_runs", "count", "lower"),
    ("core.stepcost.decode_steps", "count", "lower"),
    ("core.stepcost.cache_hit_ratio", "ratio", "higher"),
    ("serving.scheduler.admit_s", "s", "lower"),
    ("serving.scheduler.retire_s", "s", "lower"),
    ("serving.scheduler.evacuations", "count", "lower"),
    ("serving.simulator.advance_self_s", "s", "lower"),
    ("serving.simulator.engine_steps_per_s", "1/s", "higher"),
    ("serving.simulator.report_s", "s", "lower"),
    ("serving.fleet.self_s", "s", "lower"),
    ("serving.fleet.retried_requests", "count", "lower"),
    ("serving.fleet.prefill_useful_ratio", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.span_cost_pct", "%", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]

#: Per-layer metrics that are counts of work, which repeat exactly for a seed.
COUNT_METRICS = [name for name, unit, _ in PER_LAYER if unit == "count"]


def _add(counts: Dict[str, float], name: str, amount: float) -> None:
    counts[name] = counts.get(name, 0) + amount


def install(recorder: Recorder) -> Patches:
    """Wrap every traced entry point; ``.restore()`` the returned patches."""
    from repro.comm.fabric import CollectiveModel
    from repro.core.stepcost import StepCostModel
    from repro.perf.batched import BatchedGemmTimeModel
    from repro.service import http, service
    from repro.service.jobs import InMemoryJobStore
    from repro.serving import fleet, request, router, scheduler, simulator
    from repro.studies import study
    from repro.sweep import batchplan, diskstore, runner

    import workloads

    patches = Patches()

    def wrap(owner, attribute, name, counter=None):
        patches.install(recorder, owner, attribute, name, counter)

    # sweep
    wrap(runner.SweepRunner, "run", "sweep.runner")
    wrap(runner, "cache_keys", "sweep.scenario.keyhash",
         lambda c, a, k, r: _add(c, "sweep.scenario.keys", len(a[0])))
    wrap(batchplan, "plan_scenario", "sweep.batchplan.plan")
    wrap(batchplan, "price_plans", "sweep.batchplan.price")
    wrap(batchplan.ScenarioPlan, "finish", "sweep.batchplan.scatter")
    wrap(batchplan, "evaluate_scenario", "sweep.batchplan.fallback")
    wrap(BatchedGemmTimeModel, "evaluate_batch", "perf.batched.gemm_batch",
         lambda c, a, k, r: _add(c, "perf.batched.gemm_rows", len(a[1])))
    wrap(CollectiveModel, "evaluate_batch", "comm.fabric.collective_batch",
         lambda c, a, k, r: _add(c, "comm.fabric.collective_rows", len(a[1])))
    wrap(diskstore.DiskResultStore, "get", "sweep.diskstore.get",
         lambda c, a, k, r: _add(c, "sweep.diskstore.hits" if r is not None else "sweep.diskstore.misses", 1))
    wrap(diskstore.DiskResultStore, "put", "sweep.diskstore.put",
         lambda c, a, k, r: _add(c, "sweep.diskstore.puts", 1 if r else 0))

    # studies: extractors are resolved by name, so wrap what the resolver returns
    wrap(study.Study, "execute", "studies.study")
    wrap(study.Study, "scenario_for", "studies.study.expand")
    for module in (study, service):
        resolve = Patches.original(module, "get_extractor")
        patches.replace(
            module,
            "get_extractor",
            lambda name, resolve=resolve: recorder.wrap(resolve(name), "studies.study.extract"),
        )

    # service; the benchmark's own client is the main thread's top-level span
    wrap(workloads._Client, "job", "service.client")
    wrap(service.StudyService, "submit", "service.submit")
    wrap(service.StudyService, "_execute", "service.job")
    wrap(service.StudyService, "_row_event", "service.row_event")
    wrap(http._ApiHandler, "_handle", "service.http")
    wrap(InMemoryJobStore, "wait_rows", "service.wait")

    # serving
    wrap(request.TraceConfig, "generate_columns", "serving.request.trace_gen")
    wrap(request.FleetTraceConfig, "generate_columns", "serving.request.trace_gen")
    for policy in [router.RouterPolicy, *router.RouterPolicy.__subclasses__()]:
        for attribute in ("select", "assign_batch"):
            if attribute in policy.__dict__:
                wrap(policy, attribute, "serving.router.route")
    wrap(StepCostModel, "prefill_step", "core.stepcost.prefill",
         lambda c, a, k, r: _add(c, "core.stepcost.prefill_tokens", sum(int(n) for n in a[2])))
    wrap(StepCostModel, "decode_run", "core.stepcost.decode_run",
         lambda c, a, k, r: _add(c, "core.stepcost.decode_steps", len(r.total_times)))
    wrap(scheduler.ContinuousBatchingScheduler, "admit", "serving.scheduler.admit")
    wrap(scheduler.ContinuousBatchingScheduler, "retire_finished", "serving.scheduler.retire")
    wrap(scheduler.ContinuousBatchingScheduler, "evacuate", "serving.scheduler.evacuate")
    wrap(simulator.ReplicaEngine, "advance", "serving.simulator.advance")
    wrap(simulator.ServingSimulator, "report", "serving.simulator.report")
    wrap(fleet.FleetSimulator, "run", "serving.fleet")
    return patches


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(trace: Trace, extras: Mapping[str, float]) -> Dict[str, float]:
    """The :data:`PER_LAYER` values of one traced round.

    ``extras`` carries what the program counts itself (zero when the layer
    is idle on this workload): ``evaluations``, ``lru_hits``,
    ``batched_scenarios`` (``SweepStats`` deltas of the round's fresh
    runner), ``stepcost_hits``/``stepcost_misses``, ``engine_steps``,
    ``retried_requests``, ``wasted_prefill_tokens``, ``queue_wait_ms``,
    ``row_events``, ``timed_s`` (the round's timed region),
    ``overhead_pct`` (median traced vs median untraced round wall),
    ``span_cost_s`` (calibrated cost of one wrapper) and ``untraced_s``
    (median untraced wall).
    """
    keyhash = trace.total("sweep.scenario.keyhash")
    advance = trace.total("serving.simulator.advance")
    prefill_tokens = trace.counter("core.stepcost.prefill_tokens")
    submits = trace.calls("service.submit")
    # Every span the client thread opens is top-level there; the worker and
    # HTTP threads overlap with it, so only the main thread's top-level
    # spans are compared with the timed region.
    top = trace.top_by_thread.get("MainThread", 0.0)
    return {
        "sweep.scenario.keyhash_s": keyhash,
        "sweep.scenario.keys_per_s": _ratio(trace.counter("sweep.scenario.keys"), keyhash),
        "sweep.batchplan.plan_s": trace.total("sweep.batchplan.plan"),
        "sweep.batchplan.price_s": trace.total("sweep.batchplan.price"),
        "sweep.batchplan.scatter_s": trace.total("sweep.batchplan.scatter"),
        "sweep.batchplan.fallback_s": trace.total("sweep.batchplan.fallback"),
        "sweep.batchplan.batched_scenarios": extras.get("batched_scenarios", 0),
        "perf.batched.gemm_batch_s": trace.total("perf.batched.gemm_batch"),
        "perf.batched.gemm_calls": trace.calls("perf.batched.gemm_batch"),
        "perf.batched.gemm_rows": trace.counter("perf.batched.gemm_rows"),
        "comm.fabric.collective_batch_s": trace.total("comm.fabric.collective_batch"),
        "comm.fabric.collective_rows": trace.counter("comm.fabric.collective_rows"),
        "sweep.runner.self_s": trace.own("sweep.runner"),
        "sweep.runner.evaluations": extras.get("evaluations", 0),
        "sweep.runner.lru_hits": extras.get("lru_hits", 0),
        "sweep.diskstore.get_s": trace.total("sweep.diskstore.get"),
        "sweep.diskstore.put_s": trace.total("sweep.diskstore.put"),
        "sweep.diskstore.hits": trace.counter("sweep.diskstore.hits"),
        "sweep.diskstore.misses": trace.counter("sweep.diskstore.misses"),
        "sweep.diskstore.puts": trace.counter("sweep.diskstore.puts"),
        "studies.study.expand_s": trace.total("studies.study.expand"),
        "studies.study.extract_s": trace.total("studies.study.extract"),
        "service.submit_ms": _ratio(trace.total("service.submit"), submits) * 1e3,
        "service.queue_wait_ms": extras.get("queue_wait_ms", 0.0),
        "service.http_self_s": trace.own("service.http"),
        "service.row_events": extras.get("row_events", 0),
        "serving.request.trace_gen_s": trace.total("serving.request.trace_gen"),
        "serving.router.route_s": trace.total("serving.router.route"),
        "serving.router.route_calls": trace.calls("serving.router.route"),
        "core.stepcost.prefill_s": trace.total("core.stepcost.prefill"),
        "core.stepcost.prefill_calls": trace.calls("core.stepcost.prefill"),
        "core.stepcost.decode_run_s": trace.total("core.stepcost.decode_run"),
        "core.stepcost.decode_runs": trace.calls("core.stepcost.decode_run"),
        "core.stepcost.decode_steps": trace.counter("core.stepcost.decode_steps"),
        "core.stepcost.cache_hit_ratio": _ratio(
            extras.get("stepcost_hits", 0), extras.get("stepcost_hits", 0) + extras.get("stepcost_misses", 0)
        ),
        "serving.scheduler.admit_s": trace.total("serving.scheduler.admit"),
        "serving.scheduler.retire_s": trace.total("serving.scheduler.retire"),
        "serving.scheduler.evacuations": trace.calls("serving.scheduler.evacuate"),
        "serving.simulator.advance_self_s": trace.own("serving.simulator.advance"),
        "serving.simulator.engine_steps_per_s": _ratio(extras.get("engine_steps", 0), advance),
        "serving.simulator.report_s": trace.total("serving.simulator.report"),
        "serving.fleet.self_s": trace.own("serving.fleet"),
        "serving.fleet.retried_requests": extras.get("retried_requests", 0),
        "serving.fleet.prefill_useful_ratio": _ratio(
            prefill_tokens - extras.get("wasted_prefill_tokens", 0), prefill_tokens
        ),
        "trace.overhead_pct": extras.get("overhead_pct", 0.0),
        "trace.span_cost_pct": 100.0 * _ratio(
            extras.get("span_cost_s", 0.0) * sum(trace.calls(name) for name in trace.spans),
            extras.get("untraced_s", 0.0),
        ),
        "trace.unattributed_s": max(extras.get("timed_s", 0.0) - top, 0.0),
    }
