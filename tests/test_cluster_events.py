"""Fleet-wide telemetry through the router (repro.cluster).

The single-node contract (one stream per job, monotonic cursors,
byte-identical replay, one trace per campaign) must survive the jump
to a multi-process fleet: job event streams live on the worker that
owns the job and are spliced through the router verbatim; span ring
buffers are scattered-gathered into one ``worker``-attributed view;
respawns surface on the router's own ``cluster`` stream.
"""

import asyncio
import json
import socket
import threading
import time
from http.client import HTTPConnection, HTTPException, IncompleteRead

import pytest

from repro.cluster import ClusterConfig, Router, WorkerSupervisor
from repro.obs.metrics import MetricsRegistry
from repro.service.app import ModelService, ServiceConfig
from repro.service.http import _encode_response
from repro.service.watch import iter_sse_frames, watch

JOB_BODY = json.dumps({"figures": ["F8"]}).encode()


def _request(port, method, path, body=b""):
    """One raw HTTP/1.1 round trip; returns (status, body_bytes)."""
    conn = socket.create_connection(("127.0.0.1", port), timeout=30)
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Content-Type: application/json\r\n"
        f"Connection: close\r\n\r\n"
    ).encode() + body
    conn.sendall(request)
    data = b""
    while True:
        chunk = conn.recv(65536)
        if not chunk:
            break
        data += chunk
    conn.close()
    head, _, rest = data.partition(b"\r\n\r\n")
    status = int(head.decode().split("\r\n")[0].split()[1])
    return status, rest


class _Cluster:
    """A live cluster: worker processes + router loop in a thread."""

    def __init__(self, workers=2, respawn_backoff_s=0.5):
        self.config = ClusterConfig(
            workers=workers,
            service=ServiceConfig(batch_window_ms=0.5, workers=1),
            host="127.0.0.1",
            port=0,
            respawn_backoff_s=respawn_backoff_s,
        )
        self.supervisor = WorkerSupervisor(
            self.config, registry=MetricsRegistry()
        )
        self.router = Router(self.config, self.supervisor)
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = None

    def start(self):
        self.supervisor.start()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        assert self._ready.wait(60), "router did not start"
        return self

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        ready = asyncio.Event()
        serve = asyncio.ensure_future(
            self.router.serve_until(self._stop, ready=ready)
        )
        await ready.wait()
        self._ready.set()
        await serve

    @property
    def port(self):
        return self.router.bound_port

    @property
    def url(self):
        return f"http://127.0.0.1:{self.port}"

    def kill_worker(self, name):
        process = self.supervisor._slots[name].process
        process.kill()
        process.join(10)

    def stop(self):
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(30)
        self.supervisor.stop()


@pytest.fixture(scope="module")
def cluster():
    harness = _Cluster(workers=2).start()
    yield harness
    harness.stop()


def _submit_job(cluster):
    status, body = _request(cluster.port, "POST", "/v1/jobs", JOB_BODY)
    assert status == 202, body
    return json.loads(body)["job_id"]


def _wait_job(cluster, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, body = _request(
            cluster.port, "GET", f"/v1/jobs/{job_id}"
        )
        assert status == 200, body
        payload = json.loads(body)
        if payload["state"] in ("succeeded", "failed"):
            return payload
        time.sleep(0.1)
    pytest.fail(f"job {job_id} did not settle through the router")


class TestEventsPassthrough:
    def test_batch_reads_proxy_to_the_owning_worker(self, cluster):
        job_id = _submit_job(cluster)
        payload = _wait_job(cluster, job_id)
        assert payload["events_cursor"] >= 4
        status, body = _request(
            cluster.port, "GET", f"/v1/events?job_id={job_id}&cursor=0"
        )
        assert status == 200, body
        events = json.loads(body)
        kinds = [e["kind"] for e in events["events"]]
        assert kinds[0] == "job.queued" and kinds[-1] == "job.finished"

        # The routed answer is the owning worker's answer, verbatim.
        owners = []
        for port in cluster.supervisor.ports().values():
            status, direct = _request(
                port, "GET", f"/v1/events?job_id={job_id}&cursor=0"
            )
            if status == 200:
                owners.append(json.loads(direct))
        assert len(owners) == 1, "job stream must live on one worker"
        assert events["lines"] == owners[0]["lines"]

    def test_watch_tails_a_job_through_the_router(self, cluster):
        job_id = _submit_job(cluster)
        lines = []
        code = watch(
            cluster.url, job_id, emit=lines.append, timeout_s=60
        )
        assert code == 0
        assert "finished succeeded" in lines[-1]
        # Reconnecting from cursor 0 replays the same rendered log.
        tailed = []
        assert watch(
            cluster.url, job_id, as_json=True,
            emit=tailed.append, timeout_s=60,
        ) == 0
        status, body = _request(
            cluster.port, "GET", f"/v1/events?job_id={job_id}&cursor=0"
        )
        assert tailed == json.loads(body)["lines"]

    def test_unknown_stream_is_a_404_from_the_router(self, cluster):
        status, body = _request(
            cluster.port, "GET", "/v1/events?job_id=no-such-job&cursor=0"
        )
        assert status == 404
        assert json.loads(body)["error"] == "NotFoundError"

    def test_missing_stream_param_is_a_400(self, cluster):
        status, body = _request(cluster.port, "GET", "/v1/events")
        assert status == 400
        assert "job_id" in json.loads(body)["message"]


class TestErrorParity:
    """A bad request gets the worker's status and body bytes whether
    it reaches a worker directly or goes through the router."""

    @pytest.mark.parametrize(
        "method, path",
        [
            ("GET", "/v1/traces?limit=x"),
            ("GET", "/v1/profile?seconds=120"),
            ("GET", "/v1/profile?seconds=abc"),
            ("GET", "/v1/profile?format=svg"),
            ("GET", "/v1/events"),
            ("GET", "/v1/events?job_id=x&cursor=abc"),
            ("GET", "/v1/events?stream=nope&cursor=-1"),
            ("POST", "/v1/events?stream=cluster"),
        ],
    )
    def test_router_error_bytes_match_the_worker(self, cluster, method, path):
        async def direct():
            service = ModelService(ServiceConfig(profile=True))
            try:
                return await service.handle(method, path)
            finally:
                service.close()

        status, payload = asyncio.run(direct())
        expected = _encode_response(status, payload, keep_alive=False)
        assert status >= 400
        assert _request(cluster.port, method, path) == (
            status, expected.partition(b"\r\n\r\n")[2],
        )


class TestClusterStream:
    def test_cluster_stream_is_served_locally(self, cluster):
        status, body = _request(
            cluster.port, "GET", "/v1/events?stream=cluster&cursor=0"
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["stream"] == "cluster"
        assert not payload["closed"]

    def test_worker_respawn_lands_on_the_cluster_stream(self):
        harness = _Cluster(workers=2, respawn_backoff_s=0.05).start()
        try:
            harness.kill_worker("w1")
            deadline = time.monotonic() + 60
            respawns = []
            while time.monotonic() < deadline and not respawns:
                status, body = _request(
                    harness.port, "GET",
                    "/v1/events?stream=cluster&cursor=0",
                )
                assert status == 200
                respawns = [
                    e for e in json.loads(body)["events"]
                    if e["kind"] == "worker.respawn"
                ]
                time.sleep(0.1)
            assert respawns, "no respawn event on the cluster stream"
            assert respawns[0]["data"]["worker"] == "w1"
        finally:
            harness.stop()


class TestScatteredTraces:
    def test_merged_view_attributes_spans_to_workers(self, cluster):
        trace_id = "cd" * 16
        conn = socket.create_connection(
            ("127.0.0.1", cluster.port), timeout=30
        )
        speedup = json.dumps(
            {"workload": "mmm", "f": 0.9, "design": "GTX480"}
        ).encode()
        request = (
            f"POST /v1/speedup HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(speedup)}\r\n"
            f"Content-Type: application/json\r\n"
            f"X-Request-Id: {trace_id}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode() + speedup
        conn.sendall(request)
        while conn.recv(65536):
            pass
        conn.close()

        status, body = _request(
            cluster.port, "GET", f"/v1/traces?trace_id={trace_id}"
        )
        assert status == 200, body
        payload = json.loads(body)
        by_worker = {}
        for span in payload["spans"]:
            by_worker.setdefault(span["worker"], []).append(span["name"])
        assert "router" in by_worker
        assert "router.request" in by_worker["router"]
        worker_names = [w for w in by_worker if w != "router"]
        assert worker_names, "no worker-side spans in the merged view"
        assert any(
            "http.request" in by_worker[w] for w in worker_names
        )
        # Every span in the merge shares the forwarded trace id, and
        # the merge is globally time-ordered.
        assert all(
            span["trace_id"] == trace_id for span in payload["spans"]
        )
        starts = [span["start_unix"] for span in payload["spans"]]
        assert starts == sorted(starts)
        assert sorted(payload["workers"]) == ["w1", "w2"]

    def test_campaign_trace_resolves_through_the_merged_view(
        self, cluster
    ):
        job_id = _submit_job(cluster)
        _wait_job(cluster, job_id)
        status, body = _request(
            cluster.port, "GET", f"/v1/events?job_id={job_id}&cursor=0"
        )
        events = json.loads(body)["events"]
        trace_id = events[0]["trace_id"]
        status, body = _request(
            cluster.port, "GET", f"/v1/traces?trace_id={trace_id}"
        )
        assert status == 200
        spans = json.loads(body)["spans"]
        names = {span["name"] for span in spans}
        assert "campaign.run" in names and "campaign.task" in names
        task_span_ids = {
            span["span_id"]
            for span in spans
            if span["name"] == "campaign.task"
        }
        settled_span_ids = {
            e["span_id"] for e in events if e["kind"] == "task.settled"
        }
        assert settled_span_ids <= task_span_ids

    def test_bad_limit_is_a_400(self, cluster):
        status, body = _request(
            cluster.port, "GET", "/v1/traces?limit=x"
        )
        assert status == 400
        assert json.loads(body)["error"] == "BadRequestError"


class TestKilledWorkerMidTail:
    def test_dead_worker_ends_the_spliced_tail_cleanly(self):
        """An SSE tail spliced to a worker that dies mid-stream ends
        with a clean EOF (never a hang): the client's cursor makes the
        reconnect safe."""
        harness = _Cluster(workers=2, respawn_backoff_s=30.0).start()
        try:
            # The slo stream never closes, so the tail stays open
            # until the upstream dies.  Find which worker the router
            # splices it to, then kill exactly that worker.
            conn = HTTPConnection("127.0.0.1", harness.port, timeout=30)
            conn.request("GET", "/v1/events?stream=slo&follow=sse")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/event-stream"
            )
            streamed = {
                worker: harness.router._requests.value(
                    worker=worker, outcome="streamed"
                )
                for worker in ("w1", "w2")
            }
            owner = max(streamed, key=streamed.get)
            harness.kill_worker(owner)
            ended = threading.Event()

            def drain():
                try:
                    for _frame in iter_sse_frames(response):
                        pass
                except (HTTPException, IncompleteRead, OSError):
                    pass  # abrupt chunked EOF is an acceptable end
                ended.set()

            thread = threading.Thread(target=drain, daemon=True)
            thread.start()
            assert ended.wait(30), "spliced tail hung after worker death"
            conn.close()
        finally:
            harness.stop()


class TestFleetProfile:
    """``GET /v1/profile`` through the router: concurrent captures on
    every worker merged into one folded view whose stacks keep
    per-worker attribution as a leading ``worker:wN`` frame."""

    def test_merged_json_capture_attributes_workers(self, cluster):
        status, body = _request(
            cluster.port, "GET", "/v1/profile?seconds=0&format=json"
        )
        assert status == 200, body
        payload = json.loads(body)
        workers = payload["workers"]
        assert set(workers) <= {"w1", "w2"}
        assert workers, "no worker answered the capture"
        for name, doc in workers.items():
            assert doc["worker"] == name
            assert doc["format"] == "folded"
        merged = payload["merged"]
        assert merged["samples"] == sum(
            doc["samples"] for doc in workers.values()
        )
        from repro.obs.prof import parse_folded_line

        for line in merged["folded"]:
            stack, _count = parse_folded_line(line)
            assert stack[0] in ("worker:w1", "worker:w2")

    def test_merged_folded_capture_is_plain_text(self, cluster):
        status, body = _request(
            cluster.port, "GET", "/v1/profile?seconds=0&format=folded"
        )
        assert status == 200, body
        from repro.obs.prof import parse_folded_line

        lines = body.decode("utf-8").splitlines()
        assert lines
        for line in lines:
            stack, _count = parse_folded_line(line)
            assert stack[0].startswith("worker:")

    def test_bad_seconds_rejected_at_the_router(self, cluster):
        status, body = _request(
            cluster.port, "GET", "/v1/profile?seconds=120"
        )
        assert status == 400, body
