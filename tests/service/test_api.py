"""Full-route API tests against the in-memory fakes, plus the real-runner
acceptance pins (warm resubmission prices zero; NDJSON row count == scenario
count; the fetched CSV is bit-identical to a direct run).
"""

import json
import threading

import pytest

from repro.studies import Study
from repro.service import (
    FakeClock,
    FakeStudyExecutor,
    InMemoryJobStore,
    ServiceApi,
    ServiceRegistry,
    StudyService,
    fake_catalogs,
)
from repro.service import service as service_module
from repro.service.service import MAX_SCENARIOS, RunnerStudyExecutor
from repro.sweep import SweepRunner


def _fake_study(total=3):
    return Study(
        name="fake-study",
        kind="gemv_validation",
        axes={"seed": list(range(total))},
    )


def make_api(executor=None, builders=None, clock=None):
    registry = ServiceRegistry(
        runner=None,
        jobs=InMemoryJobStore(),
        clock=clock or FakeClock(),
        catalogs=fake_catalogs(builders or {"fake-study": lambda **kw: _fake_study(**kw)}),
        executor=executor or FakeStudyExecutor(),
        workers=0,
    )
    service = StudyService(registry, start_workers=False)
    return ServiceApi(service), service


def post_spec(api, spec):
    return api.dispatch("POST", "/studies", body=json.dumps(spec).encode())


def drain_events(api, job_id):
    response = api.dispatch("GET", f"/jobs/{job_id}/events")
    assert response.status == 200
    assert response.content_type == "application/x-ndjson"
    return [json.loads(line) for line in response.stream]


# -- submission / lifecycle over the fakes -----------------------------------------------


def test_submit_inline_spec_queues_job_and_links():
    api, service = make_api()
    response = post_spec(api, _fake_study().to_dict())
    assert response.status == 202
    job = response.json_body()["job"]
    assert job["state"] == "queued"
    assert job["total_scenarios"] == 3
    assert job["links"]["table_csv"] == f"/jobs/{job['id']}/table.csv"
    service.run_next()
    status = api.dispatch("GET", f"/jobs/{job['id']}").json_body()["job"]
    assert status["state"] == "done"
    assert status["completed_rows"] == 3


def test_submit_registered_name_with_params():
    api, service = make_api()
    response = post_spec(api, {"study": "fake-study", "params": {"total": 2}})
    assert response.status == 202
    assert response.json_body()["job"]["total_scenarios"] == 2


def test_submit_unknown_registered_name_is_422():
    api, _ = make_api()
    response = post_spec(api, {"study": "nope"})
    assert response.status == 422
    error = response.json_body()["error"]
    assert "nope" in error["message"]
    assert error["type"] == "ConfigurationError"


def test_submit_bad_params_is_422():
    api, _ = make_api()
    response = post_spec(api, {"study": "fake-study", "params": {"bogus_kw": 1}})
    assert response.status == 422
    assert "bogus_kw" in response.json_body()["error"]["message"]


def test_submit_invalid_spec_is_422_naming_the_problem():
    api, _ = make_api()
    response = post_spec(api, {"name": "x", "kind": "inference", "fixed": {"model": "LLAMA2-7B"}})
    assert response.status == 422
    assert "system" in response.json_body()["error"]["message"]


def test_submit_malformed_bodies_are_400():
    api, _ = make_api()
    assert api.dispatch("POST", "/studies", body=b"").status == 400
    assert api.dispatch("POST", "/studies", body=b"{not json").status == 400
    assert api.dispatch("POST", "/studies", body=b"[1, 2]").status == 400


def test_routing_errors():
    api, _ = make_api()
    assert api.dispatch("GET", "/no/such/route").status == 404
    assert api.dispatch("GET", "/jobs/job-99").status == 404
    assert api.dispatch("DELETE", "/healthz").status == 405
    assert api.dispatch("POST", "/jobs").status == 405
    assert api.dispatch("GET", "/registry/nope").status == 404


def test_info_health_stats_and_registry_listings():
    api, _ = make_api()
    assert api.dispatch("GET", "/healthz").json_body() == {"status": "ok"}
    info = api.dispatch("GET", "/").json_body()
    assert info["service"] == "repro-serve"
    assert "POST /studies" in info["endpoints"]
    stats = api.dispatch("GET", "/stats").json_body()
    assert stats["jobs"]["queued"] == 0
    studies = api.dispatch("GET", "/registry/studies").json_body()["studies"]
    assert studies[0]["name"] == "fake-study"
    assert api.dispatch("GET", "/studies").json_body() == {"studies": studies}
    assert api.dispatch("GET", "/registry/models").json_body()["models"] == ["fake-model-7b"]


def test_rows_poll_offsets_and_table_exports():
    api, service = make_api()
    job_id = post_spec(api, _fake_study().to_dict()).json_body()["job"]["id"]
    # Table before completion: 409.
    assert api.dispatch("GET", f"/jobs/{job_id}/table.csv").status == 409
    service.run_next()
    page = api.dispatch("GET", f"/jobs/{job_id}/rows", query={"offset": "1"}).json_body()
    assert page["done"] and page["offset"] == 1 and page["next_offset"] == 3
    assert [row["index"] for row in page["rows"]] == [1, 2]
    assert api.dispatch("GET", f"/jobs/{job_id}/rows", query={"offset": "-1"}).status == 400
    assert api.dispatch("GET", f"/jobs/{job_id}/rows", query={"offset": "x"}).status == 400
    csv = api.dispatch("GET", f"/jobs/{job_id}/table.csv")
    assert csv.status == 200 and csv.content_type == "text/csv"
    assert csv.body.decode().splitlines()[0] == "index,value"
    as_json = api.dispatch("GET", f"/jobs/{job_id}/table.json")
    assert as_json.status == 200
    assert "index" in json.loads(as_json.body)["columns"]


def test_events_stream_rows_then_end():
    api, service = make_api()
    job_id = post_spec(api, _fake_study().to_dict()).json_body()["job"]["id"]
    service.run_next()
    events = drain_events(api, job_id)
    assert [event["event"] for event in events] == ["row", "row", "row", "end"]
    assert events[-1]["state"] == "done"
    assert events[-1]["completed_rows"] == 3
    assert all(event["scenario"]["kind"] == "gemv_validation" for event in events[:-1])


def test_cancel_queued_job_never_runs():
    api, service = make_api()
    job_id = post_spec(api, _fake_study().to_dict()).json_body()["job"]["id"]
    response = api.dispatch("POST", f"/jobs/{job_id}/cancel")
    assert response.status == 200
    assert response.json_body()["job"]["state"] == "cancelled"
    assert service.run_next() is None  # the worker skips the cancelled entry
    assert service.executor.executed == []
    # A second cancel (terminal) is a 409.
    assert api.dispatch("DELETE", f"/jobs/{job_id}").status == 409


def test_cancel_running_job_keeps_completed_rows():
    step = threading.Semaphore(0)
    api, service = make_api(executor=FakeStudyExecutor(step=step))
    job_id = post_spec(api, {"study": "fake-study", "params": {"total": 5}}).json_body()["job"]["id"]
    worker = threading.Thread(target=service.run_next)
    worker.start()
    try:
        step.release(2)  # let exactly two rows complete
        job = service.job(job_id)
        while len(job.rows) < 2:
            service.jobs.wait_rows(job, offset=0, timeout=0.05)
        assert api.dispatch("POST", f"/jobs/{job_id}/cancel").status == 200
        step.release(3)  # unblock; the hook raises at the next row
    finally:
        worker.join(timeout=10)
    assert not worker.is_alive()
    status = api.dispatch("GET", f"/jobs/{job_id}").json_body()["job"]
    assert status["state"] == "cancelled"
    assert status["completed_rows"] == 2
    events = drain_events(api, job_id)
    assert [event["event"] for event in events] == ["row", "row", "end"]
    assert events[-1]["state"] == "cancelled"


def test_failed_execution_reports_the_error():
    api, service = make_api(executor=FakeStudyExecutor(fail_with=RuntimeError("exploded"), fail_after=1))
    job_id = post_spec(api, _fake_study().to_dict()).json_body()["job"]["id"]
    service.run_next()
    status = api.dispatch("GET", f"/jobs/{job_id}").json_body()["job"]
    assert status["state"] == "failed"
    assert "exploded" in status["error"]
    assert status["completed_rows"] == 1
    assert drain_events(api, job_id)[-1]["error"] == status["error"]


def test_clock_drives_timestamps():
    clock = FakeClock(start=100.0)
    api, service = make_api(clock=clock)
    job_id = post_spec(api, _fake_study().to_dict()).json_body()["job"]["id"]
    clock.advance(5.0)
    service.run_next()
    status = api.dispatch("GET", f"/jobs/{job_id}").json_body()["job"]
    assert status["submitted_at"] == 100.0
    assert status["started_at"] == 105.0
    assert api.dispatch("GET", "/stats").json_body()["uptime_s"] == 5.0


# -- the scenario limit ------------------------------------------------------------------


def _grid_study(seeds, lanes, filters=()):
    return Study(
        name="grid-study",
        kind="gemv_validation",
        axes={"seed": list(range(seeds)), "lane": list(range(lanes))},
        filters=filters,
    )


def _grid_api(monkeypatch, limit, filters=()):
    monkeypatch.setattr(service_module, "MAX_SCENARIOS", limit)
    return make_api(builders={"grid": lambda **kw: _grid_study(filters=filters, **kw)})


def test_grid_at_the_scenario_limit_submits(monkeypatch):
    api, service = _grid_api(monkeypatch, limit=6)
    response = post_spec(api, {"study": "grid", "params": {"seeds": 3, "lanes": 2}})
    assert response.status == 202
    assert response.json_body()["job"]["total_scenarios"] == 6
    assert len(service.jobs.list()) == 1


def test_grid_one_over_the_scenario_limit_is_422(monkeypatch):
    api, service = _grid_api(monkeypatch, limit=6)
    response = post_spec(api, {"study": "grid", "params": {"seeds": 7, "lanes": 1}})
    assert response.status == 422
    message = response.json_body()["error"]["message"]
    assert "expands to 7 scenarios" in message
    assert "6-scenario limit" in message
    assert service.jobs.list() == []


def test_scenario_limit_applies_to_the_unfiltered_grid(monkeypatch):
    """The limit reads the product of the axis lengths: a filter that would
    keep fewer combos is never run for a grid over the limit."""
    calls = []

    def first_lane(combo):
        calls.append(combo)
        return combo["lane"] == 0

    api, service = _grid_api(monkeypatch, limit=6, filters=(first_lane,))
    response = post_spec(api, {"study": "grid", "params": {"seeds": 4, "lanes": 2}})
    assert response.status == 422
    assert "expands to 8 scenarios" in response.json_body()["error"]["message"]
    assert calls == []
    assert service.jobs.list() == []


def test_total_scenarios_counts_filtered_combos():
    study = _grid_study(seeds=4, lanes=3, filters=(lambda combo: combo["lane"] == 0,))
    assert RunnerStudyExecutor(runner=None).total_scenarios(study) == 4
    assert RunnerStudyExecutor(runner=None).total_scenarios(_grid_study(seeds=4, lanes=3)) == 12


class _CountingExecutor(FakeStudyExecutor):
    def __init__(self):
        super().__init__()
        self.counted = []

    def total_scenarios(self, study):
        self.counted.append(study.name)
        return super().total_scenarios(study)


@pytest.mark.parametrize(
    "axes, total",
    [({}, 1), ({"seed": []}, 0), ({"seed": [0, 1], "lane": [0, 1, 2]}, 6)],
    ids=["no-axes", "empty-axis", "two-axes"],
)
def test_only_a_filtered_study_has_its_combos_counted(axes, total):
    """An unfiltered study's total is the product of its axis lengths, which
    matches its combo count at the edges too: no axes is one combo."""
    executor = _CountingExecutor()
    builders = {
        "plain": lambda: Study(name="plain", kind="gemv_validation", axes=axes),
        "filtered": lambda: Study(name="filtered", kind="gemv_validation", axes=axes, filters=(lambda combo: True,)),
    }
    api, _ = make_api(executor=executor, builders=builders)
    for name in builders:
        response = post_spec(api, {"study": name})
        assert response.status == 202
        assert response.json_body()["job"]["total_scenarios"] == total
    assert executor.counted == ["filtered"]


# -- acceptance pins on the REAL runner --------------------------------------------------


REAL_SPEC = {
    "name": "batch-scan",
    "kind": "inference",
    "axes": {"batch_size": [1, 2, 4]},
    "fixed": {"system": "A100x2", "model": "LLAMA2-7B"},
}


@pytest.fixture
def real_api():
    runner = SweepRunner()
    registry = ServiceRegistry(runner=runner, jobs=InMemoryJobStore(), workers=0)
    service = StudyService(registry, start_workers=False)
    return ServiceApi(service), service, runner


def test_oversized_grid_is_422_before_counting(real_api):
    """A small spec naming a huge product of axes is refused by its grid size,
    before any combo is counted or a job exists; registered studies still submit."""
    api, service, _ = real_api
    spec = {
        "name": "oversized",
        "kind": "inference",
        "axes": {
            "tensor_parallel": [1, 2],
            "batch_size": list(range(1, 301)),
            "prompt_tokens": list(range(1, 301)),
            "generated_tokens": list(range(1, 301)),
        },
        "fixed": {"system": "A100x2", "model": "LLAMA2-7B"},
    }
    assert len(json.dumps(spec)) < 5_000
    response = post_spec(api, spec)
    assert response.status == 422
    error = response.json_body()["error"]
    assert error["type"] == "ConfigurationError"
    assert "54,000,000 scenarios" in error["message"]
    assert f"{MAX_SCENARIOS:,}-scenario limit" in error["message"]
    assert service.jobs.list() == []
    accepted = post_spec(api, {"study": "table4_gemm_bottlenecks"})
    assert accepted.status == 202
    assert accepted.json_body()["job"]["total_scenarios"] == 2


def test_second_submission_prices_zero_scenarios(real_api):
    api, service, runner = real_api
    first = post_spec(api, REAL_SPEC).json_body()["job"]
    service.run_next()
    assert runner.stats.evaluations == 3
    assert api.dispatch("GET", f"/jobs/{first['id']}").json_body()["job"]["cached_rows"] == 0

    second = post_spec(api, REAL_SPEC).json_body()["job"]
    service.run_next()
    assert runner.stats.evaluations == 3  # nothing new priced
    status = api.dispatch("GET", f"/jobs/{second['id']}").json_body()["job"]
    assert status["state"] == "done"
    assert status["cached_rows"] == status["total_scenarios"] == 3


def test_streamed_row_count_equals_scenario_count(real_api):
    api, service, _ = real_api
    job = post_spec(api, REAL_SPEC).json_body()["job"]
    service.run_next()
    events = drain_events(api, job["id"])
    rows = [event for event in events if event["event"] == "row"]
    assert len(rows) == job["total_scenarios"]
    assert {row["source"] for row in rows} == {"priced"}
    assert all(row["scenario"]["model"] == "Llama2-7B" for row in rows)


def test_fetched_csv_bit_identical_to_direct_run(real_api):
    api, service, _ = real_api
    job_id = post_spec(api, REAL_SPEC).json_body()["job"]["id"]
    service.run_next()
    served = api.dispatch("GET", f"/jobs/{job_id}/table.csv").body.decode()
    direct = Study.from_dict(REAL_SPEC).run(runner=SweepRunner()).to_csv()
    assert served == direct
