"""Quick self-test of the benchmark itself, at toy scale.

Usage (from the repository root; about half a minute)::

    python3 perfbench/selftest.py

For every workload it checks that

* ``BENCHMARK.json`` lists exactly the metrics ``run.py`` and ``layers.py``
  emit, with the same units;
* an untraced run emits every end-to-end metric and a traced run every
  per-layer metric, each with its unit, plus the workload's named values;
* two traced runs of one seed give identical output digests and identical
  per-layer counts, and are correct;

and that ``run.py`` exits non-zero without printing a result when the
checkout holds no program sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOY_SCALE = 0.1
SEED = 3


def check(condition: bool, message: str, failures: list) -> None:
    if not condition:
        failures.append(message)
        print(f"  FAIL {message}")


def check_benchmark_json(failures: list) -> None:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(
        [(m["name"], m["unit"], m["better"], m["bound"]) for m in benchmark["end_to_end"]]
        == [tuple(row) for row in run.END_TO_END],
        "BENCHMARK.json end_to_end differs from run.END_TO_END",
        failures,
    )
    check(
        [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]] == list(layers.PER_LAYER),
        "BENCHMARK.json per_layer differs from layers.PER_LAYER",
        failures,
    )
    check(
        sorted(w["name"] for w in benchmark["workloads"]) == sorted(WORKLOADS),
        "BENCHMARK.json workloads differ from workloads.WORKLOADS",
        failures,
    )


def check_metrics(record: dict, expected: list, failures: list) -> None:
    metrics = record["result"]["metrics"]
    check(list(metrics) == [name for name, _ in expected], f"{record['workload']}: metric names", failures)
    for name, unit in expected:
        metric = metrics.get(name, {})
        check(metric.get("unit") == unit, f"{record['workload']}: {name} unit {metric.get('unit')} != {unit}", failures)
        check(isinstance(metric.get("value"), (int, float)), f"{record['workload']}: {name} value", failures)


def check_workload(workload: str, failures: list) -> None:
    print(f"{workload}")
    plain = run.run_benchmark(workload, SEED, seconds=0, trace=False, scale=TOY_SCALE)
    check_metrics(plain, [(name, unit) for name, unit, _, _ in run.END_TO_END], failures)
    for name in run.NAMED[workload]:
        check(name in plain["named"], f"{workload}: named value {name} missing", failures)
    first = run.run_benchmark(workload, SEED, seconds=0, trace=True, scale=TOY_SCALE)
    second = run.run_benchmark(workload, SEED, seconds=0, trace=True, scale=TOY_SCALE)
    check_metrics(first, [(name, unit) for name, unit, _ in layers.PER_LAYER], failures)
    for record in (plain, first, second):
        failed = record["result"]["failed"]
        check(record["result"]["correct"], f"{workload}: run not correct: {failed} failed", failures)
    check(plain["digest"] == first["digest"] == second["digest"], f"{workload}: digests differ", failures)
    for name in layers.COUNT_METRICS:
        a = first["result"]["metrics"][name]["value"]
        b = second["result"]["metrics"][name]["value"]
        check(a == b, f"{workload}: count {name} differs between runs ({a} != {b})", failures)
    print(f"  digest {first['digest'][:16]}  coverage {first['named']['trace.coverage_pct']:.1f}%")


def check_refuses_without_sources(failures: list) -> None:
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(bare.name, "__pycache__", "_work"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep_cold", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    check(completed.returncode != 0, "run.py succeeded without program sources", failures)
    check('"correct"' not in completed.stdout, "run.py printed a result without program sources", failures)


def main() -> int:
    failures: list = []
    check_benchmark_json(failures)
    for workload in WORKLOADS:
        check_workload(workload, failures)
    check_refuses_without_sources(failures)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
