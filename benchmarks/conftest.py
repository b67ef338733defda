"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints the
rows in a paper-like layout (visible with ``pytest benchmarks/ --benchmark-only -s``),
records the headline numbers in ``benchmark.extra_info``, and asserts the
qualitative shape of the result (who wins, orderings, error bands).
"""

from __future__ import annotations

import statistics
import sys
from typing import Callable, List, Tuple


def emit(text: str) -> None:
    """Print a regenerated table so it is visible in benchmark runs."""
    sys.stdout.write("\n" + text + "\n")


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def alternating_medians(
    repeats: int, *runs: Callable[[], Tuple[float, object]]
) -> List[Tuple[float, object]]:
    """Median seconds of each run over ``repeats`` interleaved repetitions.

    Each run is a zero-argument callable returning ``(seconds, value)``; it
    resets whatever state it needs (cold caches, a fresh runner) outside its
    timed region.  Every repetition runs all of them, in reverse order on odd
    repetitions, so host drift hits each side of a ratio alike and no side
    always runs right after another.  Returns one ``(median_seconds,
    last_value)`` per run, in the order given.
    """
    seconds: List[List[float]] = [[] for _ in runs]
    values: List[object] = [None] * len(runs)
    for repeat in range(repeats):
        order = range(len(runs)) if repeat % 2 == 0 else reversed(range(len(runs)))
        for index in order:
            elapsed, values[index] = runs[index]()
            seconds[index].append(elapsed)
    return [(statistics.median(times), value) for times, value in zip(seconds, values)]
