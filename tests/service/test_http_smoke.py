"""Real-socket smoke tests: the stdlib HTTP transport end to end.

Everything route-level lives in ``test_api.py`` against the fakes; this file
only proves the socket adapter works -- bind, submit over HTTP, stream the
NDJSON events, fetch the CSV, shut down cleanly -- and that it refuses
request bodies it must not read.
"""

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import (
    InMemoryJobStore,
    ServiceApi,
    ServiceRegistry,
    StudyService,
    make_server,
)
from repro.service.http import MAX_BODY_BYTES
from repro.studies import Study
from repro.sweep import SweepRunner

SPEC = {
    "name": "smoke-scan",
    "kind": "inference",
    "axes": {"batch_size": [1, 4]},
    "fixed": {"system": "A100x2", "model": "LLAMA2-7B"},
}


@pytest.fixture
def live_server():
    runner = SweepRunner()
    registry = ServiceRegistry(runner=runner, jobs=InMemoryJobStore(), workers=1)
    service = StudyService(registry)
    server = make_server(ServiceApi(service), host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", runner
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read()


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def test_submit_stream_fetch_over_real_sockets(live_server):
    base, runner = live_server
    status, body = _get(f"{base}/healthz")
    assert status == 200 and json.loads(body) == {"status": "ok"}

    status, submitted = _post(f"{base}/studies", SPEC)
    assert status == 202
    job_id = submitted["job"]["id"]

    # The close-delimited NDJSON stream carries every row, then the end line.
    status, raw = _get(f"{base}/jobs/{job_id}/events")
    assert status == 200
    events = [json.loads(line) for line in raw.decode().splitlines()]
    assert sum(event["event"] == "row" for event in events) == 2
    assert events[-1] == {"event": "end", "state": "done", "completed_rows": 2, "error": None}

    status, csv_body = _get(f"{base}/jobs/{job_id}/table.csv")
    assert status == 200
    direct = Study.from_dict(SPEC).run(runner=SweepRunner()).to_csv()
    assert csv_body.decode() == direct

    # Warm resubmission over the same server prices nothing.
    evaluations_before = runner.stats.evaluations
    _, resubmitted = _post(f"{base}/studies", SPEC)
    resubmit_id = resubmitted["job"]["id"]
    _get(f"{base}/jobs/{resubmit_id}/events")  # blocks until terminal
    status, body = _get(f"{base}/jobs/{resubmit_id}")
    job = json.loads(body)["job"]
    assert job["state"] == "done"
    assert job["cached_rows"] == job["total_scenarios"] == 2
    assert runner.stats.evaluations == evaluations_before

    # A structured 422 travels over the wire too.
    bad = dict(SPEC, extract="no_such_extractor")
    with pytest.raises(urllib.error.HTTPError) as failure:
        _post(f"{base}/studies", bad)
    assert failure.value.code == 422
    assert "no_such_extractor" in json.loads(failure.value.read())["error"]["message"]


# ---------------------------------------------------------------------------
# Request bodies the transport refuses to read.
# ---------------------------------------------------------------------------


def _raw_post(base, headers, body=b""):
    """POST /studies with hand-set headers (``http.client`` adds none of its own)."""
    host, port = base.removeprefix("http://").split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        connection.putrequest("POST", "/studies", skip_accept_encoding=True)
        for name, value in headers.items():
            connection.putheader(name, value)
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, response.getheader("Connection"), json.loads(response.read())
    finally:
        connection.close()


@pytest.mark.parametrize("declared", ["twelve", "-5"])
def test_malformed_content_length_is_a_400(live_server, declared):
    base, _ = live_server
    status, connection, body = _raw_post(base, {"Content-Length": declared})
    assert status == 400
    assert connection == "close"
    assert body["error"]["type"] == "BadRequest"


def test_oversized_body_is_a_413_without_reading_it(live_server):
    base, runner = live_server
    # One byte sent, 10 TB declared: the body is refused before any read.
    status, connection, body = _raw_post(base, {"Content-Length": str(10 * 1024**4)}, body=b"{")
    assert status == 413
    assert connection == "close"
    assert body["error"]["type"] == "PayloadTooLarge"
    assert str(MAX_BODY_BYTES) in body["error"]["message"]
    assert runner.stats.evaluations == 0


def test_body_at_the_limit_is_read(live_server):
    base, _ = live_server
    payload = json.dumps(SPEC).encode().ljust(MAX_BODY_BYTES)  # trailing spaces are valid JSON
    status, connection, body = _raw_post(base, {"Content-Length": str(len(payload))}, body=payload)
    assert status == 202
    assert connection is None
    assert body["job"]["state"] in ("queued", "running", "done")


def test_server_keeps_serving_after_refusing_bodies(live_server):
    base, _ = live_server
    assert _raw_post(base, {"Content-Length": "twelve"})[0] == 400
    assert _raw_post(base, {"Content-Length": str(MAX_BODY_BYTES + 1)}, body=b"{")[0] == 413
    status, submitted = _post(f"{base}/studies", SPEC)
    assert status == 202
    assert submitted["job"]["state"] in ("queued", "running", "done")
