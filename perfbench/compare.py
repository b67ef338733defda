"""Compare two result sets (parent vs change), metric by metric.

Usage (from the repository root)::

    python3 perfbench/collect.py --out results/ab --seeds 1-10 --root ../parent --root .
    python3 perfbench/compare.py results/ab/a results/ab/b

Runs pair up by workload and seed.  For every workload and end-to-end
metric (plus the workload's named values) it prints each side's median
and quartiles, the pairs the change won, and a verdict:

* ``improved`` -- the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the parent's own
  spread (the distance between its quartiles);
* ``no worse`` -- the change's median is not worse than the parent's by
  more than the metric's bound from ``BENCHMARK.json``, and the parent's
  spread is within the bound;
* ``unresolved`` -- the parent's spread is wider than the bound, unless
  every run of the change reads better than every run of the parent;
* ``worse`` -- the change's median is worse by more than the bound.

Deterministic values (simulated metrics, the validation error) must be
equal on both sides and read ``same`` or ``CHANGED``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from collect import load  # noqa: E402
from run import NAMED  # noqa: E402


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> Dict[str, object]:
    """The verdict of one metric, by the rule in the module docstring (pairs are index-aligned)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    q1, median_a, q3 = _quartiles(parent)
    _, median_b, _ = _quartiles(change)
    spread = q3 - q1
    gain = sign * (median_b - median_a)
    pairs = len(list(zip(parent, change)))
    all_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if wins >= 0.9 * pairs and gain > spread:
        outcome = "improved"
    elif median_a and spread / abs(median_a) > bound and not all_better:
        outcome = "unresolved"
    elif gain >= -bound * abs(median_a):
        outcome = "no worse"
    else:
        outcome = "worse"
    return {"median_a": median_a, "median_b": median_b, "iqr_a": spread, "wins": wins, "losses": losses,
            "pairs": pairs, "verdict": outcome}


def _named_values(records: Dict[int, dict], seeds: List[int], name: str) -> List[Optional[float]]:
    return [records[seed]["named"].get(name) for seed in seeds]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()

    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    regressions = 0
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        failed = [sum(side[workload][s]["result"]["failed"] for s in seeds) for side in (parent, change)]
        print(f"{workload}: {len(seeds)} pairs; failed operations parent {failed[0]}, change {failed[1]}")
        print(f"  {'metric':24s} {'parent median [q1, q3]':>34s} {'change median':>14s} {'won':>7s}  verdict")
        rows = list(metrics.items())
        rows += [(name, metrics[twin]) for name, twin in NAMED[workload].items() if twin is not None]
        for label, metric in rows:
            if label in metrics:
                values = [
                    [side[workload][s]["result"]["metrics"][label]["value"] for s in seeds] for side in (parent, change)
                ]
            else:
                values = [_named_values(side[workload], seeds, label) for side in (parent, change)]
            result = verdict(values[0], values[1], metric["better"], metric["bound"])
            q1, _, q3 = _quartiles(values[0])
            regressions += result["verdict"] == "worse"
            print(
                f"  {label:24s} {result['median_a']:14.4f} [{q1:.4f}, {q3:.4f}] {result['median_b']:14.4f} "
                f"{result['wins']:3d}/{result['pairs']:<3d}  {result['verdict']}"
            )
        for name, twin in NAMED[workload].items():
            if twin is None:
                a, b = (_named_values(side[workload], seeds, name) for side in (parent, change))
                print(f"  {name:24s} {'same' if a == b else 'CHANGED'} (deterministic)")
                regressions += a != b
        if failed[1] > failed[0]:
            regressions += 1
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
