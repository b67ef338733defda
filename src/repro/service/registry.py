"""The service registry: constructor-injected backends of the study service.

Everything the service touches -- the shared sweep runner, the job store, the
clock, the name catalogs (studies/models/systems/extractors) -- arrives
through one :class:`ServiceRegistry`, so every backend can be swapped for an
in-memory fake (:mod:`repro.service.fakes`) and the full HTTP API is testable
without sockets, real studies, or wall-clock time.  Production wiring goes
through :func:`build_registry`, which is what the ``repro serve`` CLI verb
calls.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional

from ..sweep.runner import SweepRunner
from .jobs import InMemoryJobStore

#: The injected time source: a zero-argument callable returning seconds.
Clock = Callable[[], float]


@dataclasses.dataclass
class Catalogs:
    """Name-listing backends behind the ``GET /registry/...`` endpoints.

    Attributes:
        studies: Registered studies as ``{"name", "artifact", "description"}``
            records.
        models / systems / extractors / derives: Plain name lists.
        get_study: ``(name, **params) -> Study`` resolver used by registered-
            name submissions; must raise a
            :class:`~repro.errors.ReproError` for unknown names.
    """

    studies: Callable[[], List[Dict[str, str]]]
    models: Callable[[], List[str]]
    systems: Callable[[], List[str]]
    extractors: Callable[[], List[str]]
    derives: Callable[[], List[str]]
    get_study: Callable[..., object]


def default_catalogs() -> Catalogs:
    """Catalogs wired to the real registries (zoo, hardware catalog, studies)."""
    from ..hardware.catalog import list_systems
    from ..models.zoo import list_models
    from ..studies.extractors import list_derives, list_extractors
    from ..studies.registry import get_study, list_studies

    def studies() -> List[Dict[str, str]]:
        return [
            {"name": entry.name, "artifact": entry.artifact, "description": entry.description}
            for entry in list_studies()
        ]

    return Catalogs(
        studies=studies,
        models=list_models,
        systems=list_systems,
        extractors=list_extractors,
        derives=list_derives,
        get_study=get_study,
    )


@dataclasses.dataclass
class ServiceRegistry:
    """Every backend of one :class:`~repro.service.service.StudyService`.

    Attributes:
        runner: The ONE warm :class:`~repro.sweep.runner.SweepRunner` all
            jobs share -- its LRU, disk store, and the process-global engine
            /step-cost caches are what make a resubmission price nothing.
            May be ``None`` when a fake ``executor`` replaces evaluation
            entirely.
        jobs: The job store (``InMemoryJobStore`` in-process; swap for a
            fake or a persistent store).
        clock: Time source for every timestamp the service records.
        catalogs: Name registries behind ``GET /registry/...`` and
            registered-name submissions.
        executor: Optional study-execution backend; ``None`` builds the
            default runner-backed executor.  Fakes inject scripted ones.
        workers: Worker threads draining the job queue.
    """

    runner: Optional[SweepRunner] = None
    jobs: InMemoryJobStore = dataclasses.field(default_factory=InMemoryJobStore)
    clock: Clock = time.time
    catalogs: Catalogs = dataclasses.field(default_factory=default_catalogs)
    executor: Optional[object] = None
    workers: int = 2


def build_registry(
    workers: int = 2,
    disk_cache: "str | bool | None" = True,
    cache_size: int = 65536,
) -> ServiceRegistry:
    """Production wiring: a shared warm runner plus in-memory job store.

    Args:
        workers: Service worker threads (concurrent studies in flight).
        disk_cache: Passed through to :class:`SweepRunner` -- ``True`` opens
            the default persistent store, a path roots it there, ``False``
            disables it.
        cache_size: Runner LRU entries; sized generously because the LRU is
            the cross-request warm state the service exists to keep.
    """
    runner = SweepRunner(cache_size=cache_size, disk_cache=disk_cache)
    return ServiceRegistry(runner=runner, workers=workers)
