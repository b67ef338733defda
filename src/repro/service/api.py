"""The HTTP API of the study service, as a transport-free dispatch table.

:meth:`ServiceApi.dispatch` maps ``(method, path, body, query)`` to a
:class:`Response` -- plain data plus an optional byte-chunk stream -- without
touching sockets, so the complete API surface is testable in-process against
the fakes and the HTTP layer (:mod:`repro.service.http`) is a thin adapter.

Routes::

    GET    /                     service info (version, uptime, endpoints)
    GET    /healthz              liveness probe
    GET    /stats                job counts + shared-runner cache counters
    POST   /studies              submit a study (spec or registered name) -> 202
    GET    /studies              alias of /registry/studies
    GET    /jobs                 every job's status, in submission order
    GET    /jobs/<id>            one job's status
    GET    /jobs/<id>/events     NDJSON stream: one line per completed scenario
    GET    /jobs/<id>/rows       poll completed rows (?offset=N&wait=seconds)
    GET    /jobs/<id>/table.csv  finished table as CSV (409 until done)
    GET    /jobs/<id>/table.json finished table as columnar JSON
    POST   /jobs/<id>/cancel     cancel a queued/running job
    DELETE /jobs/<id>            same as cancel
    GET    /registry/{studies,models,systems,extractors,derives}

Errors are structured JSON: ``{"error": {"type": ..., "message": ...}}`` with
400 for malformed requests, 404 for unknown jobs/routes, 405 for wrong
methods, 409 for invalid lifecycle transitions, and 422 for submissions the
spec validation rejects (unknown study/extractor/model/system names, missing
required parameters).
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Iterator, Mapping, Optional

import numpy as np

from .. import __version__
from ..errors import ReproError
from .jobs import Job, JobState
from .service import InvalidTransition, StudyService

#: Longest long-poll wait the rows endpoint grants, seconds.
MAX_POLL_WAIT = 30.0

#: Condition-wait granularity of the NDJSON stream, seconds.  Purely an
#: upper bound on shutdown latency -- new rows wake the stream immediately.
_STREAM_TICK = 0.25


def _json_default(value: object) -> object:
    """JSON fallbacks: NumPy scalars/arrays, enums, then ``str``."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, enum.Enum):
        return value.value
    return str(value)


def _dumps(payload: object) -> bytes:
    return json.dumps(payload, default=_json_default).encode("utf-8")


@dataclasses.dataclass
class Response:
    """One API response: status, body bytes, and an optional byte stream."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    stream: Optional[Iterator[bytes]] = None

    @classmethod
    def json(cls, payload: object, status: int = 200) -> "Response":
        return cls(status=status, body=_dumps(payload) + b"\n")

    @classmethod
    def text(cls, text: str, status: int = 200, content_type: str = "text/plain") -> "Response":
        return cls(status=status, body=text.encode("utf-8"), content_type=content_type)

    @classmethod
    def error(cls, status: int, message: str, error_type: str = "Error") -> "Response":
        return cls.json({"error": {"type": error_type, "message": message}}, status=status)

    def json_body(self) -> object:
        """Decode the body as JSON (test convenience)."""
        return json.loads(self.body.decode("utf-8"))


class ServiceApi:
    """Route dispatcher over one :class:`~repro.service.service.StudyService`."""

    def __init__(self, service: StudyService) -> None:
        self.service = service

    def dispatch(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        query: Optional[Mapping[str, str]] = None,
    ) -> Response:
        """Resolve one request to a :class:`Response` (never raises for
        client errors; unexpected exceptions are the transport's 500)."""
        method = method.upper()
        query = query or {}
        parts = [part for part in path.split("/") if part]
        if not parts:
            return self._require(method, "GET") or self._info()
        if parts == ["healthz"]:
            return self._require(method, "GET") or Response.json({"status": "ok"})
        if parts == ["stats"]:
            return self._require(method, "GET") or Response.json(self.service.stats())
        if parts == ["studies"]:
            if method == "POST":
                return self._submit(body)
            return self._require(method, "GET") or self._registry("studies")
        if parts[0] == "registry" and len(parts) == 2:
            return self._require(method, "GET") or self._registry(parts[1])
        if parts[0] == "jobs":
            return self._jobs_route(method, parts, query)
        return Response.error(404, f"no route for {path!r}", "NotFound")

    @staticmethod
    def _require(method: str, expected: str) -> Optional[Response]:
        if method != expected:
            return Response.error(405, f"method {method} not allowed (use {expected})", "MethodNotAllowed")
        return None

    # -- routes ------------------------------------------------------------------------

    def _info(self) -> Response:
        stats = self.service.stats()
        return Response.json(
            {
                "service": "repro-serve",
                "version": __version__,
                "uptime_s": stats["uptime_s"],
                "workers": stats["workers"],
                "jobs": stats["jobs"],
                "endpoints": [
                    "POST /studies",
                    "GET /jobs",
                    "GET /jobs/<id>",
                    "GET /jobs/<id>/events",
                    "GET /jobs/<id>/rows",
                    "GET /jobs/<id>/table.csv",
                    "GET /jobs/<id>/table.json",
                    "POST /jobs/<id>/cancel",
                    "GET /registry/studies",
                    "GET /registry/models",
                    "GET /registry/systems",
                    "GET /registry/extractors",
                    "GET /registry/derives",
                    "GET /stats",
                    "GET /healthz",
                ],
            }
        )

    def _registry(self, which: str) -> Response:
        catalogs = self.service.registry.catalogs
        listings = {
            "studies": catalogs.studies,
            "models": catalogs.models,
            "systems": catalogs.systems,
            "extractors": catalogs.extractors,
            "derives": catalogs.derives,
        }
        if which not in listings:
            return Response.error(
                404, f"unknown registry {which!r}; one of {sorted(listings)}", "NotFound"
            )
        return Response.json({which: listings[which]()})

    def _submit(self, body: Optional[bytes]) -> Response:
        if not body:
            return Response.error(400, "empty submission body (expected a JSON document)", "BadRequest")
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return Response.error(400, f"submission body is not valid JSON: {error}", "BadRequest")
        if not isinstance(document, dict):
            return Response.error(400, "the submission body must be a JSON object", "BadRequest")
        try:
            job = self.service.submit(document)
        except ReproError as error:
            # The structured 422: spec validation names the unknown
            # study/extractor/derive/model/system or missing parameter.
            return Response.error(422, str(error), type(error).__name__)
        return Response.json({"job": job.status()}, status=202)

    def _jobs_route(self, method: str, parts: list, query: Mapping[str, str]) -> Response:
        if len(parts) == 1:
            return self._require(method, "GET") or Response.json(
                {"jobs": [job.status() for job in self.service.jobs.list()]}
            )
        try:
            job = self.service.job(parts[1])
        except KeyError:
            return Response.error(404, f"unknown job {parts[1]!r}", "NotFound")
        if len(parts) == 2:
            if method == "DELETE":
                return self._cancel(job)
            return self._require(method, "GET") or Response.json({"job": job.status()})
        if len(parts) != 3:
            return Response.error(404, f"no route for {'/'.join(parts)!r}", "NotFound")
        action = parts[2]
        if action == "cancel":
            return self._require(method, "POST") or self._cancel(job)
        checked = self._require(method, "GET")
        if checked is not None:
            return checked
        if action == "events":
            return Response(status=200, content_type="application/x-ndjson", stream=self._events(job))
        if action == "rows":
            return self._rows(job, query)
        if action == "table.csv":
            return self._table(job, "csv")
        if action == "table.json":
            return self._table(job, "json")
        return Response.error(404, f"unknown job action {action!r}", "NotFound")

    def _cancel(self, job: Job) -> Response:
        try:
            job = self.service.cancel(job.id)
        except InvalidTransition as error:
            return Response.error(409, str(error), "InvalidTransition")
        return Response.json({"job": job.status()})

    def _events(self, job: Job) -> Iterator[bytes]:
        """NDJSON: every row event, then one ``end`` line when the job settles."""
        store = self.service.jobs
        offset = 0
        while True:
            rows, terminal = store.wait_rows(job, offset, timeout=_STREAM_TICK)
            for row in rows:
                yield _dumps(row) + b"\n"
            offset += len(rows)
            if terminal and not rows:
                yield _dumps(
                    {
                        "event": "end",
                        "state": job.state.value,
                        "completed_rows": offset,
                        "error": job.error,
                    }
                ) + b"\n"
                return

    def _rows(self, job: Job, query: Mapping[str, str]) -> Response:
        try:
            offset = int(query.get("offset", 0))
            wait = min(float(query.get("wait", 0.0)), MAX_POLL_WAIT)
        except ValueError as error:
            return Response.error(400, f"bad offset/wait parameter: {error}", "BadRequest")
        if offset < 0:
            return Response.error(400, "offset must be non-negative", "BadRequest")
        rows, terminal = self.service.jobs.wait_rows(job, offset, timeout=max(wait, 0.0))
        return Response.json(
            {
                "state": job.state.value,
                "offset": offset,
                "next_offset": offset + len(rows),
                "done": terminal,
                "total_scenarios": job.total_scenarios,
                "rows": rows,
            }
        )

    def _table(self, job: Job, fmt: str) -> Response:
        if job.state is not JobState.DONE or job.table is None:
            return Response.error(
                409,
                f"job {job.id} is {job.state.value}; the table exists once it is done",
                "TableNotReady",
            )
        if fmt == "csv":
            return Response.text(job.table.to_csv(), content_type="text/csv")
        return Response(status=200, body=job.table.to_json().encode("utf-8") + b"\n")
