"""Collect a result set: run the benchmark over several seeds and report spreads.

Usage (from the repository root)::

    python3 perfbench/collect.py --out results/base --seeds 1-10
    python3 perfbench/collect.py --out results/ab --seeds 1-10 --root ../parent --root .

Each run is ``perfbench/run.py --out <dir>`` in a fresh process, so every run
pays its own imports and set-up, as the end-to-end ``setup_s`` expects.  With
one ``--root`` the records land in ``--out`` directly; with two they land in
``--out/a`` and ``--out/b`` and the two checkouts alternate which runs first
for each seed (the pairing ``compare.py`` expects).  After the runs, each
end-to-end metric's spread -- the distance between the first and third
quartile of its values as a share of their median -- is printed next to its
bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> List[int]:
    """``"1-10"`` or ``"1,4,9"`` -> a list of seeds."""
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def load(directory: Path) -> Dict[str, Dict[int, dict]]:
    """``{workload: {seed: record}}`` of the untraced records in ``directory``."""
    records: Dict[str, Dict[int, dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        records.setdefault(record["workload"], {})[record["ledger"]["seed"]] = record
    return records


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def report_spreads(directory: Path, benchmark: dict) -> bool:
    """Print each metric's spread; return whether all are under a third of the bound."""
    steady = True
    for workload, by_seed in load(directory).items():
        records = [by_seed[seed] for seed in sorted(by_seed)]
        failed = sum(record["result"]["failed"] for record in records)
        wrong = sum(not record["result"]["correct"] for record in records)
        print(f"{workload}: {len(records)} runs, {failed} failed operations, {wrong} incorrect runs")
        for metric in benchmark["end_to_end"]:
            values = [record["result"]["metrics"][metric["name"]]["value"] for record in records]
            if len(values) < 2:
                continue
            share = spread(values)
            ok = metric["name"] == "setup_s" or share < metric["bound"] / 3
            steady = steady and ok
            print(
                f"  {metric['name']:12s} median {statistics.median(values):12.4f} {metric['unit']:5s} "
                f"spread {share * 100:6.2f}% (bound {metric['bound'] * 100:.0f}%) {'ok' if ok else 'WIDE'}"
            )
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", help="comma-separated subset (default: all in BENCHMARK.json)")
    parser.add_argument("--root", type=Path, action="append", help="checkout(s) to run; default: this one")
    args = parser.parse_args()

    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    roots = [root.resolve() for root in (args.root or [HERE.parent])]
    if len(roots) > 2:
        parser.error("at most two --root checkouts")
    outs = [args.out] if len(roots) == 1 else [args.out / "a", args.out / "b"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in benchmark["workloads"]]
    for seed in parse_seeds(args.seeds):
        order = list(range(len(roots)))
        if seed % 2:
            order.reverse()
        for workload in workloads:
            for side in order:
                command = [
                    sys.executable, str(roots[side] / "perfbench" / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
                    "--out", str(outs[side].resolve()),
                ]
                completed = subprocess.run(command, cwd=roots[side], capture_output=True, text=True, timeout=900)
                last = completed.stdout.strip().splitlines()[-1:] or [completed.stderr.strip()[-300:]]
                label = "ab"[side] if len(roots) > 1 else "-"
                print(f"seed {seed} {workload} [{label}] rc={completed.returncode} {last[0][:160]}")
    steady = True
    for out in outs:
        print(f"== {out}")
        steady = report_spreads(out, benchmark) and steady
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
