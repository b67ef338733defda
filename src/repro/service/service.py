"""The resident study service: a job queue over one shared warm runner.

:class:`StudyService` accepts study submissions (JSON specs or registered
names), queues them, and executes them on a bounded pool of worker threads --
every job through the ONE :class:`~repro.sweep.runner.SweepRunner` the
registry injected, so the warm state every prior performance PR built
(step-cost tables, interned fabric/collective models, the in-memory LRU, the
persistent disk store) is shared *across requests* instead of dying with a
CLI invocation.  Per-scenario results stream into the job store through the
runner's existing ``on_result`` hook; cancellation rides the same hook (the
interrupt machinery the CLI's Ctrl-C path uses), so a cancelled job keeps
every completed row and the disk store keeps every priced scenario.

The service is transport-agnostic: :class:`~repro.service.api.ServiceApi`
maps it onto HTTP routes, and the tests drive those routes directly against
in-memory fakes (see :mod:`repro.service.fakes`).
"""

from __future__ import annotations

import itertools
import math
import queue as queue_module
import threading
from typing import Callable, Dict, List, Mapping, Optional

from ..errors import ConfigurationError, ReproError
from ..studies.extractors import get_extractor
from ..studies.study import Study
from ..sweep.runner import SweepResult
from ..sweep.table import SweepTable
from .jobs import Job, JobState
from .registry import ServiceRegistry

#: The largest grid one submission may expand to, about 100x the
#: 10,080-scenario megasweep grid.  A spec far below the HTTP body limit can
#: still name a product of axes large enough to occupy a worker for hours.
MAX_SCENARIOS = 1_000_000


class JobCancelled(Exception):
    """Raised inside the ``on_result`` hook to interrupt a running sweep."""


class InvalidTransition(ReproError):
    """A lifecycle request that the job's current state does not allow."""


class RunnerStudyExecutor:
    """The production execution backend: studies run through the shared runner."""

    def __init__(self, runner) -> None:
        self.runner = runner

    def total_scenarios(self, study: Study) -> int:
        """Grid size of one study (known before anything is priced)."""
        return sum(1 for _ in study.combos())

    def execute(self, study: Study, on_result: Callable[[SweepResult], None]) -> SweepTable:
        """Run ``study`` on the shared runner, streaming per-scenario results."""
        return study.run(runner=self.runner, on_result=on_result)


class StudyService:
    """Submission, queueing, execution, and lifecycle of study jobs.

    Args:
        registry: The injected backends (runner, job store, clock, catalogs,
            optional execution backend, worker count).
        start_workers: Start the worker threads immediately.  Tests pass
            ``False`` and drain the queue synchronously with
            :meth:`run_next` for deterministic, sleep-free assertions.
    """

    def __init__(self, registry: ServiceRegistry, start_workers: bool = True) -> None:
        self.registry = registry
        self.jobs = registry.jobs
        self.clock = registry.clock
        self.executor = registry.executor or RunnerStudyExecutor(registry.runner)
        self.started_at = self.clock()
        self._queue: "queue_module.SimpleQueue[Optional[str]]" = queue_module.SimpleQueue()
        self._studies: Dict[str, Study] = {}
        self._studies_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._closed = False
        if start_workers:
            self.start()

    # -- worker pool -------------------------------------------------------------------

    def start(self) -> None:
        """Start the registry's worker threads (idempotent)."""
        while len(self._threads) < max(0, self.registry.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{len(self._threads)}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work and join the worker threads."""
        self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self.jobs.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                continue  # cancelled (or withdrawn) while queued
            self._execute(job)

    def run_next(self) -> Optional[Job]:
        """Synchronously execute the next queued job (tests / workerless mode)."""
        while True:
            try:
                job_id = self._queue.get_nowait()
            except queue_module.Empty:
                return None
            if job_id is None:
                continue
            job = self.jobs.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                continue
            self._execute(job)
            return job

    # -- submission --------------------------------------------------------------------

    def submit(self, document: Mapping[str, object]) -> Job:
        """Validate one submission document and queue its job.

        Two forms are accepted::

            {"name": ..., "kind": ..., "axes": ...}      # a Study JSON spec
            {"study": {...spec...}}                       # the wrapped form
            {"study": "registered_name", "params": {...}} # a registered study

        Raises :class:`~repro.errors.ReproError` subclasses for anything
        invalid -- unknown study/extractor/derive/model/system names, missing
        required parameters, malformed spec fields, a grid of more than
        :data:`MAX_SCENARIOS` scenarios -- which the API layer returns as a
        structured 422 body.
        """
        if self._closed:
            raise InvalidTransition("the service is shutting down")
        if not isinstance(document, Mapping):
            raise ConfigurationError("the submission body must be a JSON object")
        study = self._parse_submission(document)
        grid = math.prod(len(values) for values in study.axes.values())
        if grid > MAX_SCENARIOS:
            # Checked on the unfiltered grid, before counting: counting the
            # filtered combos walks the whole product one combo at a time.
            raise ConfigurationError(
                f"study {study.name!r} expands to {grid:,} scenarios, over the "
                f"{MAX_SCENARIOS:,}-scenario limit of one submission"
            )
        # Only a filtered study's size needs its combos counted.
        total = self.executor.total_scenarios(study) if study.filters else grid
        try:
            spec_echo: Optional[Dict[str, object]] = study.to_dict()
        except ConfigurationError:
            spec_echo = None  # code-only registered study: runnable, not serializable
        job = self.jobs.create(
            study_name=study.name, spec=spec_echo, total_scenarios=total, at=self.clock()
        )
        with self._studies_lock:
            self._studies[job.id] = study
        self._queue.put(job.id)
        return job

    def _parse_submission(self, document: Mapping[str, object]) -> Study:
        named = document.get("study")
        if isinstance(named, str):
            params = document.get("params", {})
            if not isinstance(params, Mapping):
                raise ConfigurationError('"params" must be an object of builder keywords')
            unknown = set(document) - {"study", "params"}
            if unknown:
                raise ConfigurationError(
                    f"unknown submission fields {sorted(unknown)} alongside a registered study name"
                )
            try:
                study = self.registry.catalogs.get_study(named, **params)
            except TypeError as error:
                # A mistyped params key reaches the builder as an unexpected keyword.
                raise ConfigurationError(f"bad params for study {named!r}: {error}") from None
            if not isinstance(study, Study):
                raise ConfigurationError(f"study builder {named!r} did not return a Study")
            return study
        if "params" in document:
            raise ConfigurationError('"params" applies to registered study names, not inline specs')
        return Study.from_dict(document)

    # -- execution ---------------------------------------------------------------------

    def _execute(self, job: Job) -> None:
        with self._studies_lock:
            study = self._studies.get(job.id)
        if job.cancel_requested or study is None:
            self.jobs.mark_cancelled(job, at=self.clock())
            return
        self.jobs.mark_running(job, at=self.clock())
        extract = _metric_extractor(study)
        counter = itertools.count()

        def on_result(result: SweepResult) -> None:
            if job.cancel_requested:
                raise JobCancelled()
            row = self._row_event(next(counter), result, extract)
            self.jobs.append_row(job, row, cached=result.from_cache, errored=result.error is not None)

        try:
            table = self.executor.execute(study, on_result)
        except JobCancelled:
            self.jobs.mark_cancelled(job, at=self.clock())
        except ReproError as error:
            self.jobs.fail(job, str(error), at=self.clock())
        except Exception as error:  # noqa: BLE001 -- a worker thread must survive any job
            self.jobs.fail(job, f"{type(error).__name__}: {error}", at=self.clock())
        else:
            self.jobs.finish(job, table, at=self.clock())
        finally:
            with self._studies_lock:
                self._studies.pop(job.id, None)

    def _row_event(
        self,
        index: int,
        result: SweepResult,
        extract: Optional[Callable[[SweepResult], object]],
    ) -> Dict[str, object]:
        """One JSON-safe NDJSON line per completed scenario."""
        event: Dict[str, object] = {
            "event": "row",
            "index": index,
            "t": self.clock(),
            "source": "cached" if result.from_cache else ("error" if result.error else "priced"),
            "scenario": result.scenario.describe(),
        }
        if result.error is not None:
            event["error"] = result.error
        elif extract is not None:
            # Best-effort per-scenario metrics: extractors are defined on
            # single results, so most can run incrementally; ones that cannot
            # (or that need the whole table) simply leave metrics off the
            # stream -- the finished table always carries them.
            try:
                event["metrics"] = extract(result)
            except Exception:
                pass
        return event

    # -- lifecycle / introspection -----------------------------------------------------

    def job(self, job_id: str) -> Job:
        """The job with this id; raises ``KeyError`` (the API's 404) otherwise."""
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job.

        Queued jobs cancel immediately; running ones at their next completed
        scenario (the ``on_result`` hook raises, the sweep unwinds, and every
        already-priced scenario stays in the shared caches).  Raises
        :class:`InvalidTransition` for terminal jobs.
        """
        job = self.job(job_id)
        if not self.jobs.request_cancel(job, at=self.clock()):
            raise InvalidTransition(f"job {job_id} is already {job.state.value}")
        return job

    def stats(self) -> Dict[str, object]:
        """Service-level counters (the ``GET /stats`` body)."""
        runner = self.registry.runner
        return {
            "uptime_s": self.clock() - self.started_at,
            "workers": len(self._threads),
            "jobs": self.jobs.counts(),
            "runner": runner.stats.snapshot() if runner is not None else None,
        }


def _metric_extractor(study: Study) -> Optional[Callable[[SweepResult], object]]:
    """The study's raw extractor, for best-effort per-row metric streaming."""
    if study.extract is None:
        return None
    if callable(study.extract):
        return study.extract
    try:
        return get_extractor(study.extract)
    except ConfigurationError:
        return None
