"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints the
rows in a paper-like layout (visible with ``pytest benchmarks/ --benchmark-only -s``),
records the headline numbers in ``benchmark.extra_info`` (the throughput
benchmarks also in a ``BENCH_*.json`` file, through :func:`write_bench`), and
asserts the qualitative shape of the result (who wins, orderings, error bands).
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import statistics
import sys
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

#: The repository root, where every benchmark writes its ``BENCH_*.json``.
ROOT = pathlib.Path(__file__).resolve().parent.parent


def emit(text: str) -> None:
    """Print a regenerated table so it is visible in benchmark runs."""
    sys.stdout.write("\n" + text + "\n")


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


class Timed(NamedTuple):
    """One run of :func:`alternating_medians`: median seconds, last value, every repetition's seconds."""

    median: float
    value: object
    seconds: List[float]


def alternating_medians(repeats: int, *runs: Callable[[], Tuple[float, object]]) -> List[Timed]:
    """Median seconds of each run over ``repeats`` interleaved repetitions.

    Each run is a zero-argument callable returning ``(seconds, value)``; it
    resets whatever state it needs (cold caches, a fresh runner) outside its
    timed region.  Every repetition runs all of them, in reverse order on odd
    repetitions, so host drift hits each side of a ratio alike and no side
    always runs right after another.  Returns one :class:`Timed` per run, in
    the order given.
    """
    seconds: List[List[float]] = [[] for _ in runs]
    values: List[object] = [None] * len(runs)
    for repeat in range(repeats):
        order = range(len(runs)) if repeat % 2 == 0 else reversed(range(len(runs)))
        for index in order:
            elapsed, values[index] = runs[index]()
            seconds[index].append(elapsed)
    return [Timed(statistics.median(times), value, times) for times, value in zip(seconds, values)]


def _environment() -> Dict[str, object]:
    """The host half of perfbench's environment ledger (``perfbench/ledger.py``)."""
    spec = importlib.util.spec_from_file_location("_perfbench_ledger", ROOT / "perfbench" / "ledger.py")
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    return ledger.environment(ROOT)


def _spread(seconds: Sequence[float]) -> Dict[str, float]:
    """Repeat count, median, quartiles and interquartile range of one side's seconds."""
    q1, median, q3 = statistics.quantiles(seconds, n=4)
    return {"repeats": len(seconds), "median_s": median, "q1_s": q1, "q3_s": q3, "iqr_s": q3 - q1}


def write_bench(
    path: pathlib.Path, record: Mapping[str, object], repeats: Optional[Mapping[str, Sequence[float]]] = None
) -> None:
    """Write one ``BENCH_*.json`` file: ``record``, stamped with the host it ran on.

    Adds ``environment`` (CPUs, Python and NumPy versions, git SHA, from
    perfbench's ledger).  ``repeats`` maps each side of an alternating
    comparison to its seconds per repeat; each side's repeat count, median,
    quartiles and interquartile range then land under ``spread``.  The
    record's own keys are written unchanged.
    """
    stamped = dict(record)
    stamped["environment"] = _environment()
    if repeats:
        stamped["spread"] = {side: _spread(seconds) for side, seconds in repeats.items()}
    path.write_text(json.dumps(stamped, indent=2) + "\n")
