"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

The workload runs in rounds until ``--seconds`` of timed region have passed
(after one warm-up round).  ``--trace 0`` prints the end-to-end metrics,
measured with tracing off; ``--trace 1`` alternates untraced and traced
rounds and prints the per-layer metrics plus the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat every
metric by name and unit, together with the environment ledger, the output
digest and the named values (``sweep_scenarios_per_s``,
``job_first_row_p50_ms``, ...).  ``--out DIR`` also writes the stamped
result record to ``DIR/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``(name, unit, better, bound)`` of the end-to-end metrics; BENCHMARK.json
#: carries the same table.  Every workload reports every metric:
#: ``work_per_s`` counts scenarios (sweep_cold), jobs (service_mix) or
#: simulated requests (fleet_*) per host second, and an operation is one
#: generation, one job from submit to done, or one fleet simulation.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("work_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
]

#: Each workload's named values (the names claims use), and the end-to-end metric whose bound
#: they share (``None``: a simulated or model output, pinned by the digest).
NAMED = {
    "sweep_cold": {"sweep_scenarios_per_s": "work_per_s"},
    "service_mix": {
        "job_first_row_p50_ms": "op_p50_ms",
        "job_done_p50_ms": "op_p50_ms",
        "job_done_p90_ms": "op_p90_ms",
        "validation_mape_pct": None,
    },
    "fleet_diurnal": {"fleet_requests_per_s": "work_per_s", "sim_ttft_p99_s": None, "sim_goodput_rps": None},
    "fleet_faults": {"fleet_requests_per_s": "work_per_s", "sim_ttft_p99_s": None, "sim_goodput_rps": None},
}

MIN_ROUNDS = 3
#: Stop starting rounds past this much wall time, whatever --seconds says.
MAX_WALL_S = 150.0


def _percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _median_per_op(rounds: Sequence[Sequence[float]]) -> List[float]:
    """Each operation's median latency over rounds of the same operations."""
    return [statistics.median(latencies) for latencies in zip(*rounds)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def run_benchmark(
    workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0, import_s: float = 0.0
) -> Dict[str, object]:
    """Run ``workload`` and return the full result record (see module doc)."""
    import layers
    import ledger
    from tracer import Recorder, span_cost_s
    from workloads import WORKLOADS

    bench = WORKLOADS[workload](seed, scale)
    setup_samples: List[float] = []
    measured = []
    traced = []
    plain = []
    digests = set()
    started = time.perf_counter()
    timed_total = 0.0
    index = 0
    try:
        while True:
            warmup = index == 0
            tracing = trace and index % 2 == 0 and not warmup
            if not warmup:
                enough = timed_total >= seconds and len(measured) >= MIN_ROUNDS
                if trace:
                    enough = enough and len(traced) >= 2 and len(plain) >= 2
                if enough or time.perf_counter() - started > MAX_WALL_S:
                    break
            tick = time.perf_counter()
            bench.setup()
            setup_samples.append(time.perf_counter() - tick)
            gc.collect()  # no garbage of earlier rounds collected inside the timed region
            recorder = patches = None
            try:
                if tracing:
                    recorder = Recorder()
                    patches = layers.install(recorder)
                try:
                    outcome = bench.run()
                finally:
                    if patches is not None:
                        patches.restore()
                bench.verify(outcome, full=index <= 1)
            finally:
                bench.teardown()
            if outcome.digest:
                digests.add(outcome.digest)
            index += 1
            if warmup:
                continue
            timed_total += outcome.timed_s
            measured.append(outcome)
            if tracing:
                traced.append((outcome, recorder.snapshot()))
            else:
                plain.append(outcome)
    finally:
        bench.close()

    recorded = ledger.recorded_digest(workload, seed) if scale == 1.0 else None
    attempted = sum(outcome.attempted for outcome in measured)
    failed = sum(outcome.failed for outcome in measured)
    digest_ok = len(digests) == 1 and (recorded is None or recorded in digests)
    if not digest_ok:
        failed = attempted  # outputs changed: every operation of the run counts as failed

    # Timed metrics are medians over rounds.  On a shared host most rounds
    # run at the host's current pace and a few run much faster in a quiet
    # moment, so the fastest round depends on luck and spread 3x wider from
    # run to run than the median round did.  Every round runs the same
    # operations in the same order, so latency percentiles are taken over
    # each operation's median latency across rounds: a slow stretch then
    # moves only the operations it hit, not a whole round's percentile.
    setup_s = import_s + statistics.median(setup_samples)
    work_per_s = statistics.median(outcome.work / outcome.timed_s for outcome in plain)
    typical_ops = _median_per_op([outcome.op_latencies_s for outcome in plain])
    end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "work_per_s": work_per_s,
        "op_p50_ms": _percentile(typical_ops, 50) * 1e3,
        "op_p90_ms": _percentile(typical_ops, 90) * 1e3,
    }

    named: Dict[str, float] = {"error_rate": failed / attempted if attempted else 1.0}
    for key, value in measured[0].named.items():
        named[key] = value
    if workload == "sweep_cold":
        named["sweep_scenarios_per_s"] = work_per_s
    elif workload == "service_mix":
        first_rows = _median_per_op([outcome.first_row_s for outcome in plain])
        named["job_first_row_p50_ms"] = _percentile(first_rows, 50) * 1e3
        named["job_done_p50_ms"] = end_to_end["op_p50_ms"]
        named["job_done_p90_ms"] = end_to_end["op_p90_ms"]
        named["jobs_per_round"] = len(plain[0].op_latencies_s)
    else:
        named["fleet_requests_per_s"] = work_per_s

    count_mismatch = False
    if trace:
        untraced_median = statistics.median(outcome.timed_s for outcome in plain)
        # Median traced round vs median untraced round, like the timed metrics.
        overhead_pct = 100 * (statistics.median(outcome.timed_s for outcome, _ in traced) / untraced_median - 1)
        cost = span_cost_s()
        rows = []
        for outcome, spans in traced:
            extras = dict(
                outcome.extras,
                timed_s=outcome.timed_s,
                overhead_pct=overhead_pct,
                span_cost_s=cost,
                untraced_s=untraced_median,
            )
            rows.append(layers.per_layer(spans, extras))
        metrics = {
            name: {
                "value": rows[0][name] if unit == "count" else statistics.median(row[name] for row in rows),
                "unit": unit,
            }
            for name, unit, _ in layers.PER_LAYER
        }
        # Work counts must repeat exactly from round to round.
        count_mismatch = any(row[name] != rows[0][name] for row in rows for name in layers.COUNT_METRICS)
        coverage = 1.0 - metrics["trace.unattributed_s"]["value"] / statistics.median(
            outcome.timed_s for outcome, _ in traced
        )
        named["trace.coverage_pct"] = coverage * 100
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        metrics = {name: {"value": end_to_end[name], "unit": units[name]} for name in units}

    correct = digest_ok and failed == 0 and not count_mismatch
    env = ledger.environment(ROOT)
    env.update(seed=seed, rounds=len(measured), run_seconds=seconds, scale=scale)
    return {
        "workload": workload,
        "trace": int(trace),
        "ledger": env,
        "digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "recorded_digest": recorded,
        "named": named,
        "setup_samples_s": setup_samples,
        "round_timed_s": [outcome.timed_s for outcome in measured],
        "result": {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def _report(record: Dict[str, object]) -> None:
    env = record["ledger"]
    print(
        f"perfbench {record['workload']} seed={env['seed']} trace={record['trace']} rounds={env['rounds']} "
        f"cpus={env['cpus']} python={env['python']} numpy={env['numpy']} git={env['git_sha'][:12]}"
    )
    recorded = record["recorded_digest"]
    status = "no recorded digest" if recorded is None else ("matches" if recorded == record["digest"] else "MISMATCH")
    print(f"  digest {record['digest']} ({status})")
    for name, metric in record["result"]["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in record["named"].items():
        print(f"  [named] {name} = {value:.6g}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for the stamped result record")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    tick = time.perf_counter()
    import workloads  # imports every repro layer the workloads drive

    import_s = time.perf_counter() - tick
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
    _report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
