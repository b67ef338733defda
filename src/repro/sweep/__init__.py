"""Scenario/sweep subsystem: one cached, batched evaluation pipeline.

Public surface:

* :class:`~repro.sweep.scenario.Scenario` -- frozen, hashable spec of one
  evaluation (system + model + parallelism + workload knobs) with a
  canonical cache key.
* :class:`~repro.sweep.runner.SweepRunner` -- deduplicates, caches, and
  prices each generation of unique scenarios in-process through the
  cross-scenario batch planner (:mod:`repro.sweep.batchplan`).
* :class:`~repro.sweep.diskstore.DiskResultStore` -- persistent on-disk
  result store (``SweepRunner(disk_cache=...)``), keyed by the scenarios'
  deterministic cache keys plus a code fingerprint.
* :func:`~repro.sweep.runner.expand_grid` -- cartesian-product helper.
* :func:`~repro.sweep.runner.default_runner` -- the process-wide shared
  runner studies route through when no runner is passed.
* :class:`~repro.sweep.table.SweepTable` -- columnar (struct-of-NumPy-arrays)
  sweep results produced by :meth:`SweepRunner.run_table
  <repro.sweep.runner.SweepRunner.run_table>` and every study.
"""

from .batchplan import BatchTimings, evaluate_pending_batched, plan_scenario, price_plans
from .diskstore import DiskResultStore, code_fingerprint, default_cache_root
from .runner import (
    SweepResult,
    SweepRunner,
    SweepStats,
    axis_label,
    default_runner,
    expand_grid,
    merge_axis_records,
)
from .scenario import Scenario, ScenarioKind, cache_keys, clear_engine_cache, engine_for, evaluate_scenario
from .table import SweepRow, SweepTable

__all__ = [
    "BatchTimings",
    "DiskResultStore",
    "Scenario",
    "ScenarioKind",
    "SweepResult",
    "SweepRow",
    "SweepRunner",
    "SweepStats",
    "SweepTable",
    "axis_label",
    "cache_keys",
    "clear_engine_cache",
    "code_fingerprint",
    "default_cache_root",
    "default_runner",
    "engine_for",
    "evaluate_pending_batched",
    "evaluate_scenario",
    "expand_grid",
    "merge_axis_records",
    "plan_scenario",
    "price_plans",
]
