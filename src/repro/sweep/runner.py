"""The sweep runner: deduplicated, cached evaluation.

``SweepRunner`` turns a list of :class:`~repro.sweep.scenario.Scenario`
objects into :class:`SweepResult` rows.  It deduplicates scenarios by their
canonical cache key, serves repeats from an LRU result cache, and prices the
remaining unique scenarios in-process through the cross-scenario batch
planner::

    runner = SweepRunner()
    results = runner.run(scenarios)
    report = runner.evaluate(scenario)         # single scenario, same cache

Grids expand with :func:`expand_grid`::

    scenarios = [
        Scenario.inference(system, "Llama2-13B", **combo)
        for combo in expand_grid(batch_size=[1, 4, 16], tensor_parallel=[1, 2, 4])
    ]
"""

from __future__ import annotations

import collections
import collections.abc
import dataclasses
import enum
import itertools
import threading
import time as _time
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from ..errors import ConfigurationError, ReproError
from .batchplan import BatchOutcome, BatchTimings, evaluate_pending_batched
from .diskstore import DiskResultStore
from .scenario import Scenario, cache_keys, evaluate_scenario
from .table import SweepTable


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Outcome of one scenario evaluation.

    Attributes:
        scenario: The scenario that was evaluated.
        value: The evaluation result (a report, breakdown, table, ...), or
            ``None`` when the evaluation failed and errors are captured.
        from_cache: Whether the value was served from the result cache
            (including duplicates within one :meth:`SweepRunner.run` call).
        error: The captured library error message, if any.
    """

    scenario: Scenario
    value: object
    from_cache: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the evaluation produced a value."""
        return self.error is None

    @property
    def report(self) -> object:
        """Alias for :attr:`value`, reading naturally for report-producing kinds."""
        return self.value

    def row(self) -> Dict[str, object]:
        """Scenario summary merged with an ``error`` column, for tables."""
        row = self.scenario.describe()
        row["error"] = self.error
        return row


@dataclasses.dataclass
class SweepStats:
    """Running counters of a :class:`SweepRunner` (across all calls).

    Attributes:
        evaluations: Scenarios actually priced (fresh, not served from any
            cache).
        cache_hits: Results served without evaluation -- in-memory LRU hits,
            within-run duplicates, and disk-store hits alike.
        errors: Fresh evaluations that raised a captured library error.
        disk_hits: The subset of :attr:`cache_hits` loaded from the
            persistent :class:`~repro.sweep.diskstore.DiskResultStore`.
        batched_scenarios: Fresh evaluations priced through the
            cross-scenario batch planner (:mod:`repro.sweep.batchplan`)
            rather than one at a time.
        plan_seconds: Cold-path seconds spent building workload graphs
            (:func:`~repro.sweep.batchplan.plan_scenario`).
        price_seconds: Cold-path seconds spent in the vectorized pricing
            calls (:func:`~repro.sweep.batchplan.price_plans`).
        scatter_seconds: Cold-path seconds spent assembling results (and
            running the ``evaluate_scenario`` fallback of unbatchable
            kinds).
        keyhash_seconds: Seconds spent computing scenario cache keys
            (:func:`~repro.sweep.scenario.cache_keys`) in :meth:`run`.
    """

    evaluations: int = 0
    cache_hits: int = 0
    errors: int = 0
    disk_hits: int = 0
    batched_scenarios: int = 0
    plan_seconds: float = 0.0
    price_seconds: float = 0.0
    scatter_seconds: float = 0.0
    keyhash_seconds: float = 0.0

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view for logs and benchmark extra_info."""
        return dataclasses.asdict(self)


class _CacheEntry:
    """A cached evaluation: either a value or the library error it raised."""

    __slots__ = ("value", "error")

    def __init__(self, value: object = None, error: Optional[ReproError] = None):
        self.value = value
        self.error = error


class SweepRunner:
    """Expands, deduplicates, caches, and executes scenario evaluations.

    Attributes:
        cache_size: Maximum number of cached evaluation results.
        capture_errors: When True, library errors (:class:`ReproError`) are
            recorded on the result row instead of raised -- useful for grids
            that contain infeasible corners.  Non-library exceptions always
            propagate: a bug in the model must not masquerade as an
            infeasible scenario.
        disk_cache: Persistent result store.  ``None``/``False`` disables it
            (the default); ``True`` opens the default store
            (``~/.cache/repro`` or ``$REPRO_CACHE_DIR``); a path opens a
            store rooted there; a built
            :class:`~repro.sweep.diskstore.DiskResultStore` is used as-is.
            Outcomes are checked on LRU misses and persisted after fresh
            evaluations, so a repeat run prices nothing.
        batch_planning: Whether pending generations are priced through the
            cross-scenario batch planner (:mod:`repro.sweep.batchplan`) --
            bit-identical results, one vectorized pricing call per query
            family per generation instead of per-GEMM Python loops.  On by
            default; turn off to force the one-at-a-time reference path that
            the cold-sweep benchmark and the bit-identity tests compare
            against.
    """

    def __init__(
        self,
        executor: str = "serial",
        cache_size: int = 4096,
        capture_errors: bool = False,
        disk_cache: "DiskResultStore | str | bool | None" = None,
        batch_planning: bool = True,
    ):
        # Evaluation always runs in-process.  The keyword stays, accepting only
        # "serial", because perfbench/workloads.py passes executor="serial" and
        # perfbench/ is held fixed so that its runs compare across commits.
        if executor != "serial":
            raise ConfigurationError(f"executor must be 'serial', got {executor!r}")
        if cache_size < 0:
            raise ConfigurationError("cache_size must be non-negative")
        self.cache_size = cache_size
        self.capture_errors = capture_errors
        self.batch_planning = batch_planning
        self.disk_cache = _resolve_disk_cache(disk_cache)
        self.stats = SweepStats()
        self._cache: "collections.OrderedDict[str, _CacheEntry]" = collections.OrderedDict()
        # Guards the LRU dict and the stats counters so concurrent run()
        # calls (the study service drives one shared runner from several
        # worker threads) stay consistent.  Reentrant because the cache
        # helpers nest; never held across evaluation, disk I/O, or the
        # on_result/on_entry callbacks.
        self._lock = threading.RLock()

    # -- cache ------------------------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop every cached result (the stats keep counting)."""
        with self._lock:
            self._cache.clear()

    def _cache_get(self, key: str) -> Optional[_CacheEntry]:
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
            return entry

    def _cache_put(self, key: str, entry: _CacheEntry) -> None:
        with self._lock:
            if self.cache_size == 0:
                return
            while len(self._cache) >= self.cache_size:
                self._cache.popitem(last=False)
            self._cache[key] = entry

    def _lookup(self, key: str) -> Optional[_CacheEntry]:
        """LRU lookup, falling through to the persistent store on a miss.

        Disk hits are promoted into the LRU (and counted in
        :attr:`SweepStats.disk_hits`) so repeats within the process stay
        memory-speed.
        """
        entry = self._cache_get(key)
        if entry is not None or self.disk_cache is None:
            return entry
        stored = self.disk_cache.get(key)  # file I/O stays outside the lock
        if stored is None:
            return None
        entry = _CacheEntry(value=stored[0], error=stored[1])
        with self._lock:
            self.stats.disk_hits += 1
            self._cache_put(key, entry)
        return entry

    # -- execution --------------------------------------------------------------------

    def run(
        self,
        scenarios: Iterable[Scenario],
        capture_errors: Optional[bool] = None,
        on_result: Optional[Callable[[SweepResult], None]] = None,
    ) -> List[SweepResult]:
        """Evaluate ``scenarios`` and return one result per input, in order.

        Scenarios with equal cache keys are evaluated once; later occurrences
        (and scenarios already in the cache from previous calls) are marked
        ``from_cache``.  ``capture_errors`` overrides the runner-level setting
        for this call only (useful for probe batches that must survive
        infeasible corners without reconfiguring the shared runner).

        ``on_result`` streams progress: it is called exactly once per input
        scenario, as soon as that scenario's result is known -- cached results
        fire before any evaluation starts, fresh ones as their evaluation
        completes.  The returned list is always input-ordered.
        """
        capture = self.capture_errors if capture_errors is None else capture_errors
        ordered = list(scenarios)
        hash_started = _time.perf_counter()
        keys = cache_keys(ordered)
        with self._lock:
            self.stats.keyhash_seconds += _time.perf_counter() - hash_started

        # Snapshot cache hits up front: entries may be evicted from the LRU
        # while the pending scenarios are stored, so result resolution below
        # must never depend on re-reading the evictable cache.
        hits: Dict[str, _CacheEntry] = {}
        pending: Dict[str, Scenario] = {}
        indices_by_key: Dict[str, List[int]] = {}
        for index, (scenario, key) in enumerate(zip(ordered, keys)):
            indices_by_key.setdefault(key, []).append(index)
            if key in hits or key in pending:
                continue
            entry = self._lookup(key)
            if entry is not None:
                hits[key] = entry
            else:
                pending[key] = scenario

        results: List[Optional[SweepResult]] = [None] * len(ordered)
        # When errors raise (capture off), every pending scenario is still
        # evaluated and cached first, and the error surfaced is the earliest
        # one in *input* order.
        deferred_errors: List["tuple[int, ReproError]"] = []

        def resolve(key: str, entry: _CacheEntry, fresh: bool) -> None:
            for position, index in enumerate(indices_by_key[key]):
                from_cache = position > 0 or not fresh
                if from_cache:
                    with self._lock:
                        self.stats.cache_hits += 1
                if entry.error is not None:
                    if not capture:
                        deferred_errors.append((index, entry.error))
                        continue
                    result = SweepResult(
                        scenario=ordered[index], value=None, from_cache=from_cache, error=str(entry.error)
                    )
                else:
                    result = SweepResult(scenario=ordered[index], value=entry.value, from_cache=from_cache)
                results[index] = result
                if on_result is not None:
                    on_result(result)

        for key, entry in hits.items():
            resolve(key, entry, fresh=False)
        self._evaluate_pending(pending, on_entry=lambda key, entry: resolve(key, entry, fresh=True))
        if deferred_errors:
            raise min(deferred_errors, key=lambda pair: pair[0])[1]
        return results  # type: ignore[return-value]  # every index was resolved above

    def evaluate(self, scenario: Scenario) -> object:
        """Evaluate one scenario through the cache and return its value.

        Library errors raise (regardless of :attr:`capture_errors`); this is
        the building block for objective functions and one-off queries.
        """
        key = scenario.cache_key()
        entry = self._lookup(key)
        if entry is None:
            entry = self._evaluate_pending({key: scenario})[key]
        else:
            with self._lock:
                self.stats.cache_hits += 1
        if entry.error is not None:
            raise entry.error
        return entry.value

    def run_grid(
        self,
        factory: Callable[..., Scenario],
        extract: Optional[Callable[[SweepResult], "Mapping[str, object] | Sequence[Mapping[str, object]]"]] = None,
        capture_errors: Optional[bool] = None,
        on_result: Optional[Callable[[SweepResult], None]] = None,
        **axes: Sequence[object],
    ) -> SweepTable:
        """Expand the cartesian product of ``axes`` through ``factory`` and run it.

        ``factory`` receives one keyword argument per axis, e.g.::

            table = runner.run_grid(
                lambda batch_size, tensor_parallel: Scenario.inference(system, model, ...),
                batch_size=[1, 4, 16],
                tensor_parallel=[1, 2, 4],
            )

        The result is a :class:`SweepTable` with one column per axis (values
        rendered via :func:`axis_label`, so systems/models/configs appear as
        their names) followed by the columns of the extracted record -- the
        same axis-column attachment the Study layer uses.  ``extract``
        defaults to ``{"error": result.error}`` merged after the axis
        columns; it may also return a *list* of records to explode one
        scenario into several rows.
        """
        combos = list(expand_grid(**axes))
        results = self.run(
            (factory(**combo) for combo in combos), capture_errors=capture_errors, on_result=on_result
        )
        extract = extract or (lambda result: {"error": result.error})
        return SweepTable.from_records(merge_axis_records(combos, results, extract))

    def run_table(
        self,
        scenarios: Iterable[Scenario],
        extract: Optional[Callable[[SweepResult], Mapping[str, object]]] = None,
        capture_errors: Optional[bool] = None,
        on_result: Optional[Callable[[SweepResult], None]] = None,
    ) -> SweepTable:
        """Evaluate ``scenarios`` and columnize the results into a :class:`SweepTable`.

        ``extract`` maps one :class:`SweepResult` to the record that becomes
        the table's row (default: :meth:`SweepResult.row`, i.e. the scenario
        summary plus the error column).  The records are transposed into one
        NumPy array per column, so downstream consumers work on columns
        instead of per-row dicts::

            table = runner.run_table(
                scenarios,
                extract=lambda result: {
                    "model": result.scenario.model.name,
                    "latency_ms": result.report.total_latency_ms,
                },
            )
            fastest = table["latency_ms"].min()
        """
        results = self.run(scenarios, capture_errors=capture_errors, on_result=on_result)
        extract = extract or (lambda result: result.row())
        return SweepTable.from_records(extract(result) for result in results)

    # -- internals --------------------------------------------------------------------

    def _evaluate_pending(
        self,
        pending: Mapping[str, Scenario],
        on_entry: Optional[Callable[[str, _CacheEntry], None]] = None,
    ) -> Dict[str, _CacheEntry]:
        """Evaluate every pending scenario, streaming entries via ``on_entry``.

        ``on_entry`` fires once per key, in input order, as its evaluation
        completes; stats and the result cache are updated before each
        callback.
        """
        fresh: Dict[str, _CacheEntry] = {}

        def record(key: str, entry: _CacheEntry) -> None:
            with self._lock:
                self.stats.evaluations += 1
                if entry.error is not None:
                    self.stats.errors += 1
                self._cache_put(key, entry)
            if self.disk_cache is not None:
                self.disk_cache.put(key, value=entry.value, error=entry.error)
            fresh[key] = entry
            if on_entry is not None:
                on_entry(key, entry)

        def record_outcome(outcome: BatchOutcome) -> None:
            if outcome.batched:
                with self._lock:
                    self.stats.batched_scenarios += 1
            record(outcome.key, _CacheEntry(value=outcome.value, error=outcome.error))

        if self.batch_planning and len(pending) > 1:
            # Stream outcomes as they are assembled (instead of recording the
            # returned list wholesale): every completed scenario is in the LRU
            # and the disk store before the next one evaluates, so a
            # KeyboardInterrupt mid-generation loses only in-flight work.
            timings = BatchTimings()
            try:
                evaluate_pending_batched(pending, timings=timings, on_outcome=record_outcome)
            finally:
                with self._lock:
                    self.stats.plan_seconds += timings.plan_seconds
                    self.stats.price_seconds += timings.price_seconds
                    self.stats.scatter_seconds += timings.scatter_seconds
            return fresh
        for key, scenario in pending.items():
            record(key, self._evaluate_one(scenario))
        return fresh

    def _evaluate_one(self, scenario: Scenario) -> _CacheEntry:
        try:
            return _CacheEntry(value=evaluate_scenario(scenario))
        except ReproError as error:
            return _CacheEntry(error=error)


def _resolve_disk_cache(disk_cache: "DiskResultStore | str | bool | None") -> Optional[DiskResultStore]:
    """Normalize the runner's ``disk_cache`` argument to a store (or ``None``)."""
    if disk_cache is None or disk_cache is False:
        return None
    if disk_cache is True:
        return DiskResultStore()
    if isinstance(disk_cache, DiskResultStore):
        return disk_cache
    return DiskResultStore(root=disk_cache)


#: Plain scalar types: never mappings, and :func:`axis_label` returns them
#: unchanged.  Per-row loops test for them first, to skip a call or an ABC
#: ``isinstance`` check.
_PLAIN_SCALARS = frozenset({str, int, float, bool, type(None)})


def axis_label(value: object) -> object:
    """Render one axis value as a table-column scalar.

    Scalars pass through; rich spec objects collapse to their human name --
    ``SystemSpec`` / ``AcceleratorSpec`` / ``TransformerConfig`` to ``.name``,
    :class:`~repro.parallelism.config.ParallelismConfig` to its paper
    ``.label``, enums to ``.value``.  Anything else is stored verbatim (as an
    object column).
    """
    if isinstance(value, enum.Enum):
        return value.value
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    label = getattr(value, "label", None)
    if isinstance(label, str):
        return label
    return value


def merge_axis_records(
    axis_records: Sequence[Mapping[str, object]],
    results: Sequence[SweepResult],
    extract: Callable[[SweepResult], "Mapping[str, object] | Sequence[Mapping[str, object]]"],
) -> Iterator[Dict[str, object]]:
    """Merge axis columns with extracted metric records, one dict per table row.

    This is the single axis-column attachment point shared by
    :meth:`SweepRunner.run_grid` and the Study execution path: each result's
    extracted record (or records -- a list explodes one scenario into several
    rows, e.g. one row per GEMM) is prefixed with that scenario's axis
    values, rendered through :func:`axis_label`.
    """
    for axes, result in zip(axis_records, results):
        rendered = {
            name: value if type(value) in _PLAIN_SCALARS else axis_label(value) for name, value in axes.items()
        }
        extracted = extract(result)
        if isinstance(extracted, collections.abc.Mapping):
            extracted = [extracted]
        for record in extracted:
            yield {**rendered, **record}


def expand_grid(**axes: Sequence[object]) -> Iterator[Dict[str, object]]:
    """Yield every combination of the given axes as a keyword dict.

    ``expand_grid(a=[1, 2], b=["x"])`` yields ``{"a": 1, "b": "x"}`` and
    ``{"a": 2, "b": "x"}``.  Axis order follows the keyword order, with the
    last axis varying fastest.
    """
    if not axes:
        return
    names = list(axes)
    for values in itertools.product(*(axes[name] for name in names)):
        yield dict(zip(names, values))


#: Lazily created module-level runner shared by every study run without an
#: explicit runner, so separate tables/figures reuse each other's evaluations
#: within a process.
_SHARED_RUNNER: Optional[SweepRunner] = None


def default_runner() -> SweepRunner:
    """The process-wide shared runner (serial executor, capture off)."""
    global _SHARED_RUNNER
    if _SHARED_RUNNER is None:
        _SHARED_RUNNER = SweepRunner()
    return _SHARED_RUNNER
