"""End-to-end tests for the characterization service HTTP API.

Each test spins up a real :class:`~repro.serve.BackgroundService` on an
ephemeral port and talks actual HTTP to it.  Grid cells run through a
fast injected cell function (the full ``execute_cell`` path is covered
by the sweep runner tests and CI's service smoke), which also lets the
tests control timing — the single-flight coalescing test holds the
first job open until the second identical submission has attached.
"""

import http.client
import json
import re
import threading
import time
import tracemalloc

import pytest

from repro.obs.heartbeat import HeartbeatWriter
from repro.serve import BackgroundService, JobManager, ServiceConfig, parse_sse_stream
from repro.sweep.cache import ResultCache

GRID = {
    "apps": ["1d-fft"],
    "app_params": {"1d-fft": {"n": 32}},
    "meshes": ["2x2"],
    "rate_scales": [1.0, 2.0],
    "messages_per_source": 10,
}


def quick_cell(spec_doc, heartbeat=None):
    """A fast fake cell: writes a heartbeat stream, returns a report."""
    if heartbeat is not None:
        writer = HeartbeatWriter(heartbeat, label=spec_doc["app"])
        writer.write_window(sim_time=1.0, events=10)
        writer.finish("done", sim_time=2.0, events=20)
    return {
        "schema": 1,
        "app": spec_doc["app"],
        "mesh": spec_doc["mesh"],
        "messages": 5,
        "mean_latency": 1.0,
    }


class Client:
    """A tiny keep-alive HTTP client against the background service."""

    def __init__(self, service):
        self.host = service.service.config.host
        self.port = service.port

    def request(self, method, path, body=None, headers=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload, headers=headers or {})
            response = conn.getresponse()
            return response.status, json.loads(response.read().decode()), dict(
                response.getheaders()
            )
        finally:
            conn.close()

    def get(self, path, headers=None):
        return self.request("GET", path, headers=headers)

    def post(self, path, body, headers=None):
        return self.request("POST", path, body=body, headers=headers)

    def poll_job(self, job_id, timeout=15.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, doc, _ = self.get(f"/v1/jobs/{job_id}")
            assert status == 200
            if doc["state"] in ("done", "failed"):
                return doc
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} did not settle within {timeout}s")


@pytest.fixture
def service(tmp_path):
    manager = JobManager(
        str(tmp_path / "state"),
        ResultCache(str(tmp_path / "cache")),
        cell_fn=quick_cell,
    )
    config = ServiceConfig(
        port=0,
        state_dir=str(tmp_path / "state"),
        cache_dir=str(tmp_path / "cache"),
        rate=0.0,  # rate limiting has its own tests
        poll_interval=0.02,
    )
    with BackgroundService(config, manager=manager) as svc:
        yield svc


class TestRouting:
    def test_root_lists_endpoints(self, service):
        status, doc, _ = Client(service).get("/")
        assert status == 200
        assert doc["service"] == "repro-serve"
        assert any("POST /v1/jobs" in e for e in doc["endpoints"])

    def test_healthz(self, service):
        status, doc, _ = Client(service).get("/v1/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["jobs"] == {}

    def test_unknown_route_404(self, service):
        status, doc, _ = Client(service).get("/v1/nope")
        assert status == 404
        assert "error" in doc

    def test_wrong_method_405(self, service):
        status, doc, _ = Client(service).request("DELETE", "/v1/jobs")
        assert status == 405

    def test_unknown_job_404(self, service):
        status, doc, _ = Client(service).get("/v1/jobs/jdeadbeef")
        assert status == 404

    def test_unknown_result_404(self, service):
        status, doc, _ = Client(service).get("/v1/results/" + "0" * 64)
        assert status == 404


class TestValidation:
    def test_non_json_body_400(self, service):
        client = Client(service)
        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        conn.request("POST", "/v1/jobs", body=b"not json")
        response = conn.getresponse()
        assert response.status == 400
        assert "JSON" in json.loads(response.read().decode())["error"]
        conn.close()

    def test_spec_without_grid_or_trace_400(self, service):
        status, doc, _ = Client(service).post("/v1/jobs", {"what": 1})
        assert status == 400
        assert "grid" in doc["error"] and "trace" in doc["error"]

    def test_invalid_grid_400(self, service):
        client = Client(service)
        bad = dict(GRID, apps=["no-such-app"])
        status, doc, _ = client.post("/v1/jobs", {"grid": bad})
        assert status == 400
        assert "no-such-app" in doc["error"]
        # The region-parallel kernel is gone: a grid asking for it is
        # refused by name rather than run serially under a new key.
        bad = dict(GRID, options={"scheduler": "parallel", "parallel_regions": 4})
        status, doc, _ = client.post("/v1/jobs", {"grid": bad})
        assert status == 400
        assert "'parallel'" in doc["error"]
        assert client.get("/v1/jobs")[1]["jobs"] == []

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"log_spill_window": 5}, "log_spill_window needs"),
            # parallel_regions went with the region-parallel kernel; a
            # grid still carrying it is refused by name, not run
            # serially under a new cache key.
            ({"parallel_regions": 2}, "['parallel_regions']"),
        ],
        ids=["log-spill-window", "regions"],
    )
    def test_unpaired_run_options_400(self, service, options, message):
        bad = dict(GRID, options=options)
        status, doc, _ = Client(service).post("/v1/jobs", {"grid": bad})
        assert status == 400
        assert message in doc["error"]

    @pytest.mark.parametrize(
        "options, field",
        [
            ({"log_spill": "spill", "log_spill_window": 1}, "log_spill"),
            ({"heartbeat": "hb.jsonl"}, "heartbeat"),
        ],
        ids=["log-spill", "heartbeat"],
    )
    def test_server_path_options_400(self, service, tmp_path, options, field):
        # A client may not choose where the service writes.
        target = tmp_path / options[field]
        bad = dict(GRID, options=dict(options, **{field: str(target)}))
        client = Client(service)
        status, doc, _ = client.post("/v1/jobs", {"grid": bad})
        assert status == 400
        assert doc["field"] == field and field in doc["error"]
        assert client.get("/v1/jobs")[1]["jobs"] == []
        assert not target.exists()

    def test_cell_cap_400(self, service):
        service.manager.max_cells = 1
        status, doc, _ = Client(service).post("/v1/jobs", {"grid": GRID})
        assert status == 400
        assert doc["limit"] == 1 and doc["cells"] == 2

    def test_oversize_body_413(self, service):
        service.service.config.max_body = 64
        status, doc, _ = Client(service).post("/v1/jobs", {"grid": GRID})
        assert status == 413
        assert doc["limit"] == 64

    def test_empty_trace_400(self, service):
        status, doc, _ = Client(service).post("/v1/jobs", {"trace": "  "})
        assert status == 400
        assert "empty" in doc["error"]


class TestJobLifecycle:
    def test_grid_job_end_to_end(self, service):
        client = Client(service)
        status, job, _ = client.post("/v1/jobs", {"grid": GRID})
        assert status == 201
        assert job["state"] == "queued" and not job["coalesced_submission"]
        doc = client.poll_job(job["id"])
        assert doc["state"] == "done"
        assert doc["result"]["computed"] == 2
        assert doc["result"]["cached"] == 0
        assert doc["health"]["verdict"] == "healthy"
        # Every cell's artifact is fetchable by its content address.
        for row in doc["result"]["rows"]:
            status, artifact, _ = client.get(f"/v1/results/{row['key']}")
            assert status == 200
            assert artifact["app"] == "1d-fft"
        # The job shows up in the listing.
        status, listing, _ = client.get("/v1/jobs")
        assert [j["id"] for j in listing["jobs"]] == [job["id"]]
        assert listing["counts"] == {"done": 1}

    def test_second_identical_submission_all_cached(self, service):
        client = Client(service)
        _, first, _ = client.post("/v1/jobs", {"grid": GRID})
        client.poll_job(first["id"])
        executions_before = service.manager.executions
        status, second, _ = client.post("/v1/jobs", {"grid": GRID})
        assert status == 201  # first finished, so this is a new job...
        doc = client.poll_job(second["id"])
        assert doc["result"]["computed"] == 0  # ...but costs no simulation
        assert doc["result"]["cached"] == 2
        assert service.manager.executions == executions_before

    def test_job_failure_isolated_and_diagnosed(self, service):
        def failing_cell(spec_doc, heartbeat=None):
            raise RuntimeError("injected cell failure")

        service.manager.cell_fn = failing_cell
        service.manager.retries = 0
        client = Client(service)
        _, job, _ = client.post("/v1/jobs", {"grid": GRID})
        doc = client.poll_job(job["id"])
        assert doc["state"] == "failed"
        assert doc["result"]["failed"] == 2
        assert doc["health"]["verdict"] == "problems"
        assert any("injected cell failure" in line for line in doc["health"]["lines"])
        # A failed job must not poison the service.
        status, health, _ = client.get("/v1/healthz")
        assert status == 200 and health["status"] == "ok"

    def test_trace_job(self, service, tmp_path):
        from repro.core import run_static
        from repro.apps import create_app

        run = run_static(create_app("3d-fft", n=8))
        csv_path = str(tmp_path / "trace.csv")
        run.log.write_csv(csv_path)
        with open(csv_path) as handle:
            text = handle.read()
        client = Client(service)
        status, job, _ = client.post(
            "/v1/jobs", {"trace": text, "label": "uploaded-fft"}
        )
        assert status == 201
        doc = client.poll_job(job["id"])
        assert doc["state"] == "done"
        assert doc["result"]["cached"] is False
        status, artifact, _ = client.get(f"/v1/results/{doc['result']['key']}")
        assert status == 200
        assert artifact["app"] == "uploaded-fft"
        assert artifact["strategy"] == "uploaded-trace"
        assert artifact["messages"] > 0
        # Identical upload: served straight from cache, no re-analysis.
        _, again, _ = client.post("/v1/jobs", {"trace": text})
        doc2 = client.poll_job(again["id"])
        assert doc2["result"]["cached"] is True
        assert doc2["result"]["key"] == doc["result"]["key"]

    def test_trace_naming_a_huge_node_is_cheap(self, service):
        # The summary tallies (src, dst) pairs, not a table indexed by
        # node id: a dense one would need 8 * (10**5 + 1)**2 bytes here.
        text = (
            "msg_id,src,dst,length_bytes,kind,inject_time,start_time,"
            "deliver_time,contention,hops\n0,0,100000,8,p2p,0.0,1.0,5.0,0.5,2\n"
        )
        client = Client(service)
        tracemalloc.start()
        try:
            status, job, _ = client.post("/v1/jobs", {"trace": text})
            doc = client.poll_job(job["id"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 201
        assert doc["state"] == "done", doc.get("error")
        _, artifact, _ = client.get(f"/v1/results/{doc['result']['key']}")
        assert artifact["messages"] == 1
        assert peak < 32 * 2**20


class TestSingleFlight:
    def test_concurrent_identical_submissions_coalesce(self, service):
        release = threading.Event()
        executions = []

        def slow_cell(spec_doc, heartbeat=None):
            executions.append(spec_doc["rate_scale"])
            assert release.wait(10)
            return quick_cell(spec_doc, heartbeat=heartbeat)

        service.manager.cell_fn = slow_cell
        client = Client(service)
        _, first, _ = client.post("/v1/jobs", {"grid": GRID})
        # Wait until the first cell is actually executing.
        deadline = time.monotonic() + 5
        while not executions and time.monotonic() < deadline:
            time.sleep(0.01)
        assert executions
        status, second, _ = client.post("/v1/jobs", {"grid": GRID})
        assert status == 200  # attached, not created
        assert second["id"] == first["id"]
        assert second["coalesced_submission"] is True
        assert second["coalesced"] == 1
        release.set()
        doc = client.poll_job(first["id"])
        assert doc["state"] == "done"
        # Exactly one execution per cell despite two submissions.
        assert sorted(executions) == [1.0, 2.0]
        status, health, _ = client.get("/v1/healthz")
        assert health["coalesced"] == 1
        assert health["submissions"] == 2

    def test_different_grids_do_not_coalesce(self, service):
        client = Client(service)
        other = dict(GRID, rate_scales=[3.0])
        _, a, _ = client.post("/v1/jobs", {"grid": GRID})
        _, b, _ = client.post("/v1/jobs", {"grid": other})
        assert a["id"] != b["id"]
        assert b["coalesced_submission"] is False


class TestRateLimit:
    def test_429_with_retry_after(self, tmp_path):
        manager = JobManager(
            str(tmp_path / "state"),
            ResultCache(str(tmp_path / "cache")),
            cell_fn=quick_cell,
        )
        config = ServiceConfig(
            port=0,
            state_dir=str(tmp_path / "state"),
            cache_dir=str(tmp_path / "cache"),
            rate=0.001,
            burst=2,
        )
        with BackgroundService(config, manager=manager) as svc:
            client = Client(svc)
            headers = {"X-Client": "tenant-a"}
            status1, _, _ = client.post("/v1/jobs", {"grid": GRID}, headers=headers)
            grid2 = dict(GRID, rate_scales=[9.0])
            status2, _, _ = client.post("/v1/jobs", {"grid": grid2}, headers=headers)
            grid3 = dict(GRID, rate_scales=[10.0])
            status3, doc, resp_headers = client.post(
                "/v1/jobs", {"grid": grid3}, headers=headers
            )
            assert (status1, status2) == (201, 201)
            assert status3 == 429
            # RFC 9110 Retry-After delta-seconds is integral: the header
            # must be pure digits (a fractional "1000.0" makes strict
            # clients ignore it), and the JSON body must carry the same
            # integral value, not the limiter's raw float.
            assert re.fullmatch(r"[0-9]+", resp_headers["Retry-After"])
            assert int(resp_headers["Retry-After"]) >= 1
            assert isinstance(doc["retry_after"], int)
            assert doc["retry_after"] >= 1
            # A different client identity has its own bucket.
            status4, _, _ = client.post(
                "/v1/jobs", {"grid": grid3}, headers={"X-Client": "tenant-b"}
            )
            assert status4 == 201
            _, health, _ = client.get("/v1/healthz")
            assert health["throttled"] == 1


class TestEvents:
    def test_sse_stream_heartbeats_then_end(self, service):
        client = Client(service)
        _, job, _ = client.post("/v1/jobs", {"grid": GRID})
        conn = http.client.HTTPConnection(client.host, client.port, timeout=15)
        conn.request("GET", f"/v1/jobs/{job['id']}/events")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"
        events = []
        for event, doc in parse_sse_stream(response):
            events.append((event, doc))
            if event == "end":
                break
        conn.close()
        kinds = [event for event, _ in events]
        assert kinds[0] == "job"
        assert kinds[-1] == "end"
        assert "heartbeat" in kinds
        heartbeats = [doc for event, doc in events if event == "heartbeat"]
        assert any(doc.get("status") == "done" for doc in heartbeats)
        end = events[-1][1]
        assert end["state"] == "done" and end["job"] == job["id"]

    def test_sse_unknown_job_404(self, service):
        status, _, _ = Client(service).get("/v1/jobs/jnope/events")
        assert status == 404


class TestRestartResume:
    def test_incomplete_job_resumes_after_restart(self, tmp_path):
        state = str(tmp_path / "state")
        cache_dir = str(tmp_path / "cache")
        blocker = threading.Event()

        def stuck_cell(spec_doc, heartbeat=None):
            blocker.wait(30)
            return quick_cell(spec_doc, heartbeat=heartbeat)

        manager = JobManager(
            state, ResultCache(cache_dir), cell_fn=stuck_cell
        )
        config = ServiceConfig(
            port=0, state_dir=state, cache_dir=cache_dir, rate=0.0
        )
        with BackgroundService(config, manager=manager) as svc:
            client = Client(svc)
            _, job, _ = client.post("/v1/jobs", {"grid": GRID})
            job_id = job["id"]
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                _, doc, _ = client.get(f"/v1/jobs/{job_id}")
                if doc["state"] == "running":
                    break
                time.sleep(0.01)
            assert doc["state"] == "running"
        # "Kill": the service went down mid-job (the stuck cell is
        # cancelled by shutdown; the job reverts to queued on disk).
        blocker.set()
        manager.shutdown(wait=True)
        manager2 = JobManager(
            state, ResultCache(cache_dir), cell_fn=quick_cell
        )
        with BackgroundService(config, manager=manager2) as svc2:
            resumed = manager2.resume()
            assert resumed == 1
            doc = Client(svc2).poll_job(job_id)
            assert doc["state"] == "done"
            assert doc["result"]["computed"] + doc["result"]["cached"] == 2

    def test_killed_running_state_resumes(self, tmp_path):
        # Simulate a hard kill: a job document left in state=running
        # (no process ever transitions it) must be picked up by resume.
        state = str(tmp_path / "state")
        cache_dir = str(tmp_path / "cache")
        manager = JobManager(state, ResultCache(cache_dir), cell_fn=quick_cell)
        doc, coalesced = manager.submit_grid(GRID)
        job_id = doc["id"]
        manager.shutdown(wait=True)
        # Forge the crash: whatever state the doc ended in, rewrite it
        # as mid-flight.
        crashed = manager.index.load(job_id)
        crashed["state"] = "running"
        crashed.pop("result", None)
        manager.index.save(crashed)
        manager2 = JobManager(state, ResultCache(cache_dir), cell_fn=quick_cell)
        assert manager2.resume() == 1
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            doc = manager2.index.load(job_id)
            if doc["state"] in ("done", "failed"):
                break
            time.sleep(0.02)
        assert doc["state"] == "done"
        manager2.shutdown(wait=True)

    def test_stored_heap_bundle_fails_only_its_job(self, tmp_path):
        # A job stored with a scheduler the kernel does not have fails
        # by name on resume; the service runs the next job.
        for scheduler in ("heap", "parallel"):
            state = str(tmp_path / scheduler / "state")
            cache_dir = str(tmp_path / scheduler / "cache")
            manager = JobManager(state, ResultCache(cache_dir), cell_fn=quick_cell)
            doc, _ = manager.submit_grid(GRID)
            job_id = doc["id"]
            manager.shutdown(wait=True)
            stored = manager.index.load(job_id)
            stored["spec"]["grid"]["options"] = {"scheduler": scheduler}
            stored["state"] = "queued"
            stored.pop("result", None)
            manager.index.save(stored)
            manager2 = JobManager(state, ResultCache(cache_dir), cell_fn=quick_cell)
            assert manager2.resume() == 1
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                doc = manager2.index.load(job_id)
                if doc["state"] in ("done", "failed"):
                    break
                time.sleep(0.02)
            assert doc["state"] == "failed"
            assert "ValueError" in doc["error"] and f"'{scheduler}'" in doc["error"]
            fresh, _ = manager2.submit_grid(dict(GRID, seeds=[1]))
            while time.monotonic() < deadline:
                fresh = manager2.index.load(fresh["id"])
                if fresh["state"] in ("done", "failed"):
                    break
                time.sleep(0.02)
            assert fresh["state"] == "done"
            manager2.shutdown(wait=True)


class TestKeepAlive:
    def test_many_requests_one_connection(self, service):
        conn = http.client.HTTPConnection(
            service.service.config.host, service.port, timeout=10
        )
        try:
            for _ in range(20):
                conn.request("GET", "/v1/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()
        assert service.service.stats.requests >= 20
