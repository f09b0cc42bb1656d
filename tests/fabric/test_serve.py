"""The ``repro serve`` HTTP service: submit, poll, cache, shutdown."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.fabric.scheduler import FabricScheduler
from repro.fabric.serve import FabricHTTPServer, FabricService

SPEC = {
    "workloads": ["queue"],
    "models": ["baseline", "asap_rp"],
    "ops": 20,
    "threads": 1,
    "seed": 7,
}


@pytest.fixture
def server(tmp_path):
    """A live service on an ephemeral port, torn down afterwards."""
    with FabricScheduler(jobs=2, cache_dir=str(tmp_path / "cache")) as sched:
        service = FabricService(sched, cache_dir=str(tmp_path / "cache"))
        http = FabricHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(
            target=http.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        try:
            yield http, thread
        finally:
            http.shutdown()
            thread.join(timeout=5)
            http.server_close()


def _request(port, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _poll_done(port, job_id, budget_s=60.0):
    deadline = time.monotonic() + budget_s
    while time.monotonic() < deadline:
        status, doc = _request(port, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if doc["state"] != "running":
            return doc
        time.sleep(0.05)
    raise TimeoutError(f"job {job_id} still running after {budget_s}s")


def test_healthz(server):
    http, _ = server
    assert _request(http.server_address[1], "GET", "/v1/healthz") == (
        200, {"ok": True}
    )


def test_submit_poll_and_repeat_submission_hits_cache(server):
    http, _ = server
    port = http.server_address[1]

    status, doc = _request(port, "POST", "/v1/experiments", SPEC)
    assert status == 200
    assert doc["total"] == 2
    first = _poll_done(port, doc["job"])
    assert first["state"] == "done"
    assert first["completed"] == 2
    fingerprints = [c["fingerprint_sha"] for c in first["cells"]]
    assert all(fingerprints)

    # the whole point of serve: resubmitting the same spec is answered
    # from the shared store instantly -- done in the submit response,
    # every cell marked cached, identical fingerprints.
    status, again = _request(port, "POST", "/v1/experiments", SPEC)
    assert status == 200
    assert again["state"] == "done"
    assert again["cached"] == 2
    assert all(c["cached"] for c in again["cells"])
    assert [c["fingerprint_sha"] for c in again["cells"]] == fingerprints


def test_concurrent_submissions_multiplex(server):
    http, _ = server
    port = http.server_address[1]
    specs = [dict(SPEC, seed=seed) for seed in (11, 12, 13)]
    docs = [
        _request(port, "POST", "/v1/experiments", spec)[1] for spec in specs
    ]
    assert len({doc["job"] for doc in docs}) == 3
    for doc in docs:
        final = _poll_done(port, doc["job"])
        assert final["state"] == "done"
        assert final["completed"] == 2


def test_malformed_specs_get_400(server):
    http, _ = server
    port = http.server_address[1]
    for bad in (
        {"workloads": [], "models": ["asap_rp"]},
        {"models": ["asap_rp"]},
        {"workloads": ["queue"], "models": ["asap_rp"], "bogus": 1},
        {"workloads": ["no_such_workload"], "models": ["asap_rp"]},
        "not an object",
        dict(SPEC, ops="many"),
        dict(SPEC, ops=-3),
        dict(SPEC, ops=0),
        dict(SPEC, ops=True),
        dict(SPEC, seed="x"),
        dict(SPEC, threads=64),
        dict(SPEC, threads=0),
        dict(SPEC, threads=1.5),
    ):
        status, doc = _request(port, "POST", "/v1/experiments", bad)
        assert status == 400, bad
        assert "error" in doc
    # nothing malformed reached the fabric
    _, stats = _request(port, "GET", "/v1/stats")
    assert stats["scheduler"]["tasks_submitted"] == 0


def test_bad_content_length_gets_400_and_a_closed_connection(server):
    """A Content-Length that is not a non-negative integer is answered
    400 at once (not a dropped connection, not a read that blocks until
    the client leaves), and the server hangs up after the reply."""
    http, _ = server
    port = http.server_address[1]
    for length in (b"abc", b"-1"):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(b"POST /v1/experiments HTTP/1.1\r\n"
                         b"Host: 127.0.0.1\r\n"
                         b"Content-Length: " + length + b"\r\n\r\n")
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400", reply
        assert "Content-Length" in json.loads(body)["error"]


def test_unknown_routes_and_jobs_get_404(server):
    http, _ = server
    port = http.server_address[1]
    assert _request(port, "GET", "/v1/jobs/nope")[0] == 404
    assert _request(port, "GET", "/v1/bogus")[0] == 404
    assert _request(port, "POST", "/v1/bogus")[0] == 404


def test_stats_merge_service_scheduler_and_cache(server):
    http, _ = server
    port = http.server_address[1]
    _request(port, "POST", "/v1/experiments", SPEC)
    status, stats = _request(port, "GET", "/v1/stats")
    assert status == 200
    assert stats["service"]["experiments_submitted"] == 1
    assert stats["scheduler"]["tasks_submitted"] == 2
    assert "hits" in stats["cache"]


def test_shutdown_route_stops_the_server(server):
    http, thread = server
    port = http.server_address[1]
    status, doc = _request(port, "POST", "/v1/shutdown")
    assert status == 200 and doc["shutting_down"]
    thread.join(timeout=10)
    assert not thread.is_alive()
