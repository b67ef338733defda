"""In-memory fakes for every constructor-injected service backend.

The testing pattern of this subsystem: the API tests build a
:class:`~repro.service.registry.ServiceRegistry` out of these fakes, drive the
full HTTP route table through :meth:`ServiceApi.dispatch`, and assert on the
exact JSON the real transport would send -- no sockets, no real studies, no
wall-clock sleeps.  :class:`~repro.service.jobs.InMemoryJobStore` is already
its own fake; the pieces here replace the remaining backends:

- :class:`FakeClock` -- deterministic timestamps, advanced explicitly.
- :class:`FakeCatalogs` -- canned registry listings plus a builder dict for
  registered-name submissions.
- :class:`FakeStudyExecutor` -- a scripted execution backend that emits
  ``SweepResult`` rows through the same ``on_result`` hook the shared runner
  would, with optional step gating (a semaphore acquired before each row, so
  cancellation tests can freeze a job mid-stream) and scripted failure.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError
from ..studies.study import Study
from ..sweep.runner import SweepResult
from ..sweep.scenario import Scenario
from ..sweep.table import SweepTable
from .registry import Catalogs


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


def fake_catalogs(builders: Optional[Dict[str, Callable[..., Study]]] = None) -> Catalogs:
    """Catalogs with canned listings and an explicit builder table."""
    builders = dict(builders or {})

    def get_study(name: str, **params: object) -> Study:
        if name not in builders:
            raise ConfigurationError(
                f"unknown study {name!r}; registered: {sorted(builders)}"
            )
        return builders[name](**params)

    return Catalogs(
        studies=lambda: [
            {"name": name, "artifact": "fake", "description": "a fake study"}
            for name in sorted(builders)
        ],
        models=lambda: ["fake-model-7b"],
        systems=lambda: ["fake-dgx"],
        extractors=lambda: ["fake_extractor"],
        derives=lambda: ["fake_derive"],
        get_study=get_study,
    )


class FakeStudyExecutor:
    """A scripted execution backend: rows on demand, no pricing.

    Args:
        step: Optional semaphore acquired before *each* emitted row.  With an
            initial value of 0 the job freezes until the test releases steps,
            which is how cancel-while-running is pinned deterministically.
        fail_with: Raise this exception after emitting ``fail_after`` rows.
        cached: Mark emitted results as cache hits (warm-resubmission tests).
    """

    def __init__(
        self,
        step: Optional[threading.Semaphore] = None,
        fail_with: Optional[Exception] = None,
        fail_after: int = 0,
        cached: bool = False,
    ) -> None:
        self.step = step
        self.fail_with = fail_with
        self.fail_after = fail_after
        self.cached = cached
        self.executed: List[str] = []

    def total_scenarios(self, study: Study) -> int:
        return sum(1 for _ in study.combos())

    def execute(self, study: Study, on_result: Callable[[SweepResult], None]) -> SweepTable:
        self.executed.append(study.name)
        total = self.total_scenarios(study)
        columns: Dict[str, List[object]] = {"index": [], "value": []}
        for index in range(total):
            if self.step is not None:
                self.step.acquire()
            if self.fail_with is not None and index >= self.fail_after:
                raise self.fail_with
            scenario = Scenario.gemv_validation(tag=f"fake-{study.name}-{index}")
            on_result(
                SweepResult(scenario=scenario, value={"index": index}, from_cache=self.cached)
            )
            columns["index"].append(index)
            columns["value"].append(float(index))
        return SweepTable(columns=columns)
