"""Cross-scenario batched pricing for the sweep runner.

A cold sweep spends most of its time inside per-GEMM roofline evaluations:
every scenario builds its workload graph and prices each kernel through the
scalar Python path, even though the whole generation of scenarios usually
shares one system (and therefore one :class:`~repro.perf.gemm.GemmTimeModel`).
This module adds a *planning pass* in front of the runner's serial evaluation
loop:

1. :func:`plan_scenario` builds a scenario's workload graph without pricing
   it, returning the GEMM queries the evaluation will make (plus, for the
   kinds a model's ``finish`` prices, a closure that calls it).
2. :func:`price_plans` collects those queries across **all** plans sharing a
   gemm model and prices them in one
   :meth:`~repro.perf.batched.BatchedGemmTimeModel.evaluate_batch` call.
3. Each plan then finishes into exactly the object
   :func:`~repro.sweep.scenario.evaluate_scenario` would have produced.

The results are bit-for-bit identical to per-scenario evaluation: the batched
backend mirrors the scalar model's floating-point operation order (the
contract pinned by ``tests/perf/test_batched.py``).  Bottleneck-table
(columnar) plans gather their entries from one
:class:`~repro.core.reports.GemmBottleneckEntry` per distinct batch row,
which :func:`price_plans` builds straight from the result's columns without
materializing a :class:`~repro.perf.roofline.RooflinePoint`; every table
that prices the same GEMM on the same system shares that (frozen) entry.
The other (warm) plans run their normal assembly against a memo warmed with
the batch's points.  Equivalence across scenario kinds is pinned by
``tests/sweep/test_batchplan.py``.

Inference and training scenarios are planned by their model's ``plan()`` and
assembled by its ``finish(plan)``: the two halves of the direct ``predict``,
so each workload graph is built once.  Training batches both query
families: the planner collects every forward/backward/lm-head GEMM *and*
every TP/PP/DP collective of a generation of
:class:`~repro.core.training.TrainingPlan` objects, prices the GEMMs in one
:meth:`evaluate_batch` per gemm model and the collectives in one
:meth:`CollectiveModel.evaluate_batch` per collective model, and seeds the
shared memos ``finish`` then reads; ``finish`` sums each layer shape's
kernels once per training model, not once per step.

The bottleneck-table kinds (prefill/decode GEMM tables, the training-layer
bound split) take their GEMMs from the
:class:`~repro.workload.transformer_layer.LayerTemplate` objects in this
module's memo, one per layer configuration: plans that differ only in the KV
length share the token GEMMs and build just the attention scores/context
pair.  :func:`clear_plan_caches` empties the memo.

Scenario kinds without a batchable pricing phase (serving, the memory
breakdowns, the GEMV validation) are left to the normal
:func:`evaluate_scenario` path; :func:`evaluate_pending_batched` interleaves
both so the runner sees one outcome per pending scenario, in input order.
"""

from __future__ import annotations

import dataclasses
import time as _time
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..caching import Memo
from ..comm.fabric import CollectiveBatch, CollectiveModel
from ..core.bottleneck import attention_layer_bound_breakdown, attention_layer_gemms, layer_gemms
from ..core.reports import GemmBottleneckEntry
from ..errors import ReproError
from ..perf.batched import BOUND_CACHE, BOUND_COMPUTE, BOUND_MEMORY, BatchedRooflineResult, GemmBatch
from ..perf.gemm import GemmTimeModel
from ..perf.roofline import BoundType
from ..workload.operators import GEMM, CommunicationOp
from .scenario import Scenario, ScenarioKind, engine_for, evaluate_scenario

#: Bound-code -> enum mapping of the batched backend's result rows.
_BOUND_TYPES = {BOUND_COMPUTE: BoundType.COMPUTE, BOUND_MEMORY: BoundType.MEMORY, BOUND_CACHE: BoundType.CACHE}

#: Default decode KV length mirrored from ``evaluate_scenario``'s dispatch.
_DEFAULT_DECODE_KV_LEN = 200


@dataclasses.dataclass
class BatchOutcome:
    """One pending scenario's evaluation outcome from the planning pass.

    Attributes:
        key: The scenario's cache key (the runner's pending-map key).
        value: The evaluation result, or ``None`` on error.
        error: The captured library error, if any.
        batched: Whether the scenario was priced through the batch planner
            (``False`` for kinds that fell back to ``evaluate_scenario``).
    """

    key: str
    value: object = None
    error: Optional[ReproError] = None
    batched: bool = False


@dataclasses.dataclass
class BatchTimings:
    """Wall-clock seconds spent in each cold-path stage of one planning pass.

    Attributes:
        plan_seconds: Building the workload graphs (:func:`plan_scenario`).
        price_seconds: The vectorized pricing calls (:func:`price_plans`).
        scatter_seconds: Result assembly, plus the ``evaluate_scenario``
            fallback of unbatchable kinds.
        record_seconds: The ``on_outcome`` callbacks (the caller's
            recording of each outcome).
    """

    plan_seconds: float = 0.0
    price_seconds: float = 0.0
    scatter_seconds: float = 0.0
    record_seconds: float = 0.0


@dataclasses.dataclass
class ScenarioPlan:
    """A planned (but unpriced) scenario evaluation.

    Attributes:
        scenario: The scenario being planned.
        gemm_model: The (shared, memoizing) scalar GEMM model the scenario's
            evaluation prices kernels through; plans are grouped by this
            object so one batch warms one memo.
        gemms: Every GEMM query the evaluation will make.
        columnar: Assembly mode.  Columnar (bottleneck-table) plans gather
            their result from :attr:`entries`; warm plans price their
            already-built workload against the seeded shared memos.
        assemble: The warm plans' result-assembly closure (``None`` for
            columnar plans).
        rows: Row indices of :attr:`gemms` inside the shared batch
            (columnar plans only; filled by :func:`price_plans`).
        entries: One bottleneck entry per batch row a columnar plan reads,
            shared by every columnar plan of the batch (filled by
            :func:`price_plans`).
        collective_model: The (shared, memoizing) collective model the
            scenario's evaluation prices communication through (training
            plans only); collective queries are grouped by this object.
        comm_ops: Every non-trivial collective query the evaluation will
            make (training plans only).
    """

    scenario: Scenario
    gemm_model: GemmTimeModel
    gemms: List[GEMM]
    columnar: bool
    assemble: Optional[Callable[[], object]] = None
    rows: Optional[List[int]] = None
    entries: Optional[List[GemmBottleneckEntry]] = None
    collective_model: Optional[CollectiveModel] = None
    comm_ops: Optional[List[CommunicationOp]] = None

    def finish(self) -> object:
        """Assemble the final result object (after :func:`price_plans`)."""
        if self.columnar:
            entries = self.entries
            return [entries[row] for row in self.rows]
        return self.assemble()


#: Layer templates of the bottleneck kinds, one per layer configuration.
_TEMPLATES = Memo(max_size=1024)


def clear_plan_caches() -> None:
    """Drop the planner's layer templates (cold-benchmark support)."""
    _TEMPLATES.clear()


# ---------------------------------------------------------------------------
# Planning: scenario -> ScenarioPlan.
# ---------------------------------------------------------------------------


def plan_scenario(scenario: Scenario) -> Optional[ScenarioPlan]:
    """Build the plan of one scenario, or ``None`` for unbatchable kinds.

    Raises the same :class:`~repro.errors.ReproError` subclasses the direct
    evaluation would raise at graph-construction time (e.g. the inference
    memory admission check), so callers can capture plan-time errors exactly
    like evaluation errors.
    """
    kind = scenario.kind
    if kind is ScenarioKind.PREFILL_BOTTLENECKS:
        engine = engine_for(scenario.system)
        gemms = layer_gemms(
            scenario.model,
            batch_size=scenario.batch_size,
            seq_len=scenario.prompt_tokens,
            kv_len=scenario.prompt_tokens,
            tensor_parallel=scenario.tensor_parallel,
            precision=scenario.precision,
            use_kv_cache=False,
            templates=_TEMPLATES,
        )
        return ScenarioPlan(scenario, engine.kernel_model.gemm_model, gemms, columnar=True)
    if kind is ScenarioKind.DECODE_BOTTLENECKS:
        engine = engine_for(scenario.system)
        gemms = layer_gemms(
            scenario.model,
            batch_size=scenario.batch_size,
            seq_len=1,
            kv_len=scenario.kv_len if scenario.kv_len is not None else _DEFAULT_DECODE_KV_LEN,
            tensor_parallel=scenario.tensor_parallel,
            precision=scenario.precision,
            use_kv_cache=True,
            templates=_TEMPLATES,
        )
        return ScenarioPlan(scenario, engine.kernel_model.gemm_model, gemms, columnar=True)
    if kind is ScenarioKind.ATTENTION_BOUND:
        engine = engine_for(scenario.system)
        gemms = attention_layer_gemms(
            scenario.model,
            micro_batch=scenario.batch_size,
            seq_len=scenario.seq_len,
            tensor_parallel=scenario.tensor_parallel,
            precision=scenario.precision,
            templates=_TEMPLATES,
        )

        def assemble_attention(scenario: Scenario = scenario, engine=engine) -> object:
            return attention_layer_bound_breakdown(
                scenario.model,
                accelerator=scenario.system.accelerator,
                micro_batch=scenario.batch_size,
                seq_len=scenario.seq_len,
                tensor_parallel=scenario.tensor_parallel,
                precision=scenario.precision,
                kernel_model=engine.kernel_model,
            )

        return ScenarioPlan(
            scenario=scenario,
            gemm_model=engine.kernel_model.gemm_model,
            gemms=gemms,
            columnar=False,
            assemble=assemble_attention,
        )
    if kind is ScenarioKind.TRAINING:
        engine = engine_for(scenario.system)
        training_model = engine.training_model
        training_plan = training_model.plan(
            scenario.model,
            scenario.parallelism,
            global_batch_size=scenario.global_batch_size,
            seq_len=scenario.seq_len,
            precision=scenario.precision,
            recompute=scenario.recompute,
        )
        return ScenarioPlan(
            scenario=scenario,
            gemm_model=engine.kernel_model.gemm_model,
            gemms=training_plan.gemm_queries(),
            columnar=False,
            assemble=lambda plan=training_plan, model=training_model: model.finish(plan),
            collective_model=training_model.collective_model,
            comm_ops=training_plan.collective_queries(),
        )
    if kind is ScenarioKind.INFERENCE:
        engine = engine_for(scenario.system)
        inference_plan = engine.inference_model.plan(
            scenario.model,
            batch_size=scenario.batch_size,
            prompt_tokens=scenario.prompt_tokens,
            generated_tokens=scenario.generated_tokens,
            tensor_parallel=scenario.tensor_parallel,
            precision=scenario.precision,
            decode_mode=scenario.decode_mode,
        )
        return ScenarioPlan(
            scenario=scenario,
            gemm_model=engine.kernel_model.gemm_model,
            gemms=inference_plan.gemm_queries(),
            columnar=False,
            assemble=lambda plan=inference_plan, model=engine.inference_model: model.finish(plan),
        )
    return None


def _entries_from_rows(gemms: List[GEMM], result: BatchedRooflineResult) -> List[GemmBottleneckEntry]:
    """One bottleneck-table entry per leading batch row: ``gemms[i]`` was priced in row ``i``.

    Each entry equals what ``entries_from_points`` makes of the row's
    scalar :class:`RooflinePoint`, without materializing one: the row's
    ``kernel_time`` *is* ``point.time`` (same max over the same floats), the
    bound code maps to the same enum, and the arithmetic intensity replicates
    :attr:`RooflinePoint.arithmetic_intensity` -- ``flops / DRAM bytes``,
    falling back to the level sum (in level order, matching the scalar
    ``sum()``) when no level is named ``DRAM``, and ``inf`` on zero bytes.
    """
    count = len(gemms)
    times = result.kernel_time[:count].tolist()
    codes = result.bound_codes[:count].tolist()
    flops = result.flops[:count].tolist()
    if "DRAM" in result.level_names:
        dram_bytes = result.level_bytes["DRAM"][:count]
    else:
        dram_bytes = np.zeros(count, dtype=np.float64)
        for name in result.level_names:
            dram_bytes = dram_bytes + result.level_bytes[name][:count]
    dram_bytes = dram_bytes.tolist()
    return [
        GemmBottleneckEntry(
            name=gemm.name,
            time=time,
            bound=_BOUND_TYPES[code],
            m=gemm.m,
            n=gemm.n,
            k=gemm.k,
            batch=gemm.batch,
            arithmetic_intensity=gemm_flops / gemm_dram if gemm_dram > 0 else float("inf"),
        )
        for gemm, time, code, gemm_flops, gemm_dram in zip(gemms, times, codes, flops, dram_bytes)
    ]


# ---------------------------------------------------------------------------
# Pricing: all plans' GEMMs in one batched call per gemm model.
# ---------------------------------------------------------------------------


def price_plans(plans: Sequence[ScenarioPlan]) -> None:
    """Price every plan's queries, one batched call per query family.

    GEMMs: columnar plans receive their deduplicated row indices and the
    batch's shared per-row entries (their rows come first in the batch, and
    each gets one entry); warm plans get the shared memo of their gemm model
    seeded with every point their assembly will ask for (rows already
    memoized are skipped -- the memo'd points are identical by the backend's
    exact-equality contract).  Collectives (training plans): one
    :meth:`CollectiveModel.evaluate_batch` call per collective model seeds
    the shared time memo the same way.
    """
    groups: Dict[int, List[ScenarioPlan]] = {}
    models: Dict[int, GemmTimeModel] = {}
    for plan in plans:
        group_id = id(plan.gemm_model)
        groups.setdefault(group_id, []).append(plan)
        models[group_id] = plan.gemm_model
    for group_id, group in groups.items():
        gemm_model = models[group_id]
        rows: List[GEMM] = []
        index_of: Dict[GEMM, int] = {}
        columnar = [plan for plan in group if plan.columnar]
        for plan in columnar:
            plan.rows = plan_rows = []
            for gemm in plan.gemms:
                index = index_of.get(gemm)
                if index is None:
                    index = index_of[gemm] = len(rows)
                    rows.append(gemm)
                plan_rows.append(index)
        # Every row so far is one a columnar plan reads; warm plans' rows follow.
        table_rows = len(rows)
        memoize_rows: List[int] = []
        memoize_seen: set = set()
        for plan in group:
            if plan.columnar:
                continue
            for gemm in plan.gemms:
                if gemm_model.memoized(gemm):
                    continue
                index = index_of.get(gemm)
                if index is None:
                    index = index_of[gemm] = len(rows)
                    rows.append(gemm)
                if index not in memoize_seen:
                    memoize_seen.add(index)
                    memoize_rows.append(index)
        if not rows:
            continue
        result = gemm_model.batched.evaluate_batch(GemmBatch.from_gemms(rows))
        for index in memoize_rows:
            gemm_model.memoize(rows[index], result.point_at(index))
        if columnar:
            entries = _entries_from_rows(rows[:table_rows], result)
            for plan in columnar:
                plan.entries = entries
    comm_groups: Dict[int, List[ScenarioPlan]] = {}
    collective_models: Dict[int, CollectiveModel] = {}
    for plan in plans:
        if not plan.comm_ops:
            continue
        group_id = id(plan.collective_model)
        comm_groups.setdefault(group_id, []).append(plan)
        collective_models[group_id] = plan.collective_model
    for group_id, group in comm_groups.items():
        collective_model = collective_models[group_id]
        ops: List[CommunicationOp] = []
        op_index: Dict[CommunicationOp, int] = {}
        for plan in group:
            for op in plan.comm_ops:
                if op.is_trivial or op in op_index or collective_model.memoized(op):
                    continue
                op_index[op] = len(ops)
                ops.append(op)
        if not ops:
            continue
        times = collective_model.evaluate_batch(CollectiveBatch.from_ops(ops))
        for op, op_time in zip(ops, times.tolist()):
            collective_model.memoize(op, op_time)


# ---------------------------------------------------------------------------
# The runner's serial-path entry point.
# ---------------------------------------------------------------------------


def evaluate_pending_batched(
    pending: Mapping[str, Scenario],
    timings: Optional[BatchTimings] = None,
    on_outcome: Optional[Callable[[BatchOutcome], None]] = None,
) -> List[BatchOutcome]:
    """Evaluate a generation of pending scenarios through the batch planner.

    Returns one :class:`BatchOutcome` per pending entry, **in input order**
    (the same order the runner's serial loop would have recorded them).
    Library errors -- whether raised at plan time, at assembly time, or by
    the ``evaluate_scenario`` fallback -- are captured on the outcome;
    non-library exceptions propagate, exactly like the serial loop.

    When ``timings`` is given, the wall-clock seconds of each cold-path
    stage are accumulated onto it (plan/price land before the scatter loop
    starts, so an interrupted generation still reports its batched stages;
    time inside ``on_outcome`` counts as ``record_seconds``, not scatter).
    When ``on_outcome`` is given it fires once per outcome, in input order,
    as each one is assembled -- the runner's serial path uses it to persist
    completed results before an interrupt can lose them (unbatchable
    scenarios, e.g. serving fleets, evaluate one by one in that loop, so
    streaming there is what makes ``repro run`` resumable mid-study).
    """
    outcomes: Dict[str, Optional[BatchOutcome]] = {}
    planned_keys: List[str] = []
    plans: List[ScenarioPlan] = []
    started = _time.perf_counter()
    for key, scenario in pending.items():
        try:
            plan = plan_scenario(scenario)
        except ReproError as error:
            outcomes[key] = BatchOutcome(key=key, error=error, batched=True)
            continue
        if plan is None:
            outcomes[key] = None  # falls back to evaluate_scenario below
        else:
            planned_keys.append(key)
            plans.append(plan)
    priced = _time.perf_counter()
    price_plans(plans)
    scattered = _time.perf_counter()
    if timings is not None:
        timings.plan_seconds += priced - started
        timings.price_seconds += scattered - priced
    for key, plan in zip(planned_keys, plans):
        try:
            outcomes[key] = BatchOutcome(key=key, value=plan.finish(), batched=True)
        except ReproError as error:
            outcomes[key] = BatchOutcome(key=key, error=error, batched=True)
    ordered: List[BatchOutcome] = []
    record_seconds = 0.0
    try:
        for key, scenario in pending.items():
            outcome = outcomes[key]
            if outcome is None:
                try:
                    outcome = BatchOutcome(key=key, value=evaluate_scenario(scenario))
                except ReproError as error:
                    outcome = BatchOutcome(key=key, error=error)
            ordered.append(outcome)
            if on_outcome is not None:
                handed = _time.perf_counter()
                try:
                    on_outcome(outcome)
                finally:
                    record_seconds += _time.perf_counter() - handed
    finally:
        if timings is not None:
            timings.scatter_seconds += _time.perf_counter() - scattered - record_seconds
            timings.record_seconds += record_seconds
    return ordered

