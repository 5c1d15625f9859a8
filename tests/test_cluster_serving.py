"""Multi-worker serving through the router (repro.cluster).

Boots a real 2-worker cluster (spawned worker processes + the asyncio
router in a background thread) once per module and drives it with raw
keep-alive sockets, exactly like an external client.  Chaos tests get
their own short-lived cluster so killing workers cannot leak into the
shared harness.
"""

import asyncio
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.cluster import ClusterConfig, Router, WorkerSupervisor
from repro.cluster.hashring import rendezvous_owner, shard_key
from repro.obs.metrics import MetricsRegistry, validate_prometheus
from repro.service.app import ModelService, ServiceConfig

SPEEDUP_BODY = json.dumps(
    {"workload": "mmm", "f": 0.99, "design": "GTX480"}
).encode()


def _request(port, method, path, body=b"", keep=False, sock=None):
    """One raw HTTP/1.1 round trip; returns (status, headers, body, sock)."""
    conn = sock or socket.create_connection(("127.0.0.1", port), timeout=30)
    connection = "keep-alive" if keep else "close"
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Content-Type: application/json\r\n"
        f"Connection: {connection}\r\n\r\n"
    ).encode() + body
    conn.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            raise ConnectionError("server closed mid-response")
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    while len(rest) < length:
        rest += conn.recv(65536)
    if not keep:
        conn.close()
        conn = None
    return status, headers, rest, conn


def _request_with_headers(port, method, path, body, extra_headers):
    conn = socket.create_connection(("127.0.0.1", port), timeout=30)
    header_lines = "".join(
        f"{name}: {value}\r\n" for name, value in extra_headers.items()
    )
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Content-Type: application/json\r\n{header_lines}"
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
    lines = head.decode().split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, rest


class _Cluster:
    """A live cluster: worker processes + router loop in a thread."""

    def __init__(self, workers=2, respawn_backoff_s=0.5, **service):
        self.config = ClusterConfig(
            workers=workers,
            service=ServiceConfig(batch_window_ms=0.5, workers=1, **service),
            host="127.0.0.1",
            port=0,
            respawn_backoff_s=respawn_backoff_s,
        )
        # Private registries: several clusters per test session must
        # not fight over callback gauges in the process-global one.
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


class TestRouting:
    def test_routed_speedup_matches_single_process(self, cluster):
        status, _, body, _ = _request(
            cluster.port, "POST", "/v1/speedup", SPEEDUP_BODY
        )
        assert status == 200, body
        routed = json.loads(body)

        async def _direct():
            service = ModelService(ServiceConfig(batch_window_ms=0.5))
            try:
                return await service.handle_request(
                    "POST", "/v1/speedup", SPEEDUP_BODY
                )
            finally:
                service.close()

        direct_status, direct_payload, _ = asyncio.run(_direct())
        assert direct_status == 200
        assert routed == direct_payload

    def test_same_key_is_bit_stable_across_keep_alive(self, cluster):
        status, headers, first, conn = _request(
            cluster.port, "POST", "/v1/speedup", SPEEDUP_BODY, keep=True
        )
        assert status == 200
        assert "x-request-id" in headers and "x-trace-id" in headers
        status, _, second, conn = _request(
            cluster.port, "POST", "/v1/speedup", SPEEDUP_BODY,
            keep=True, sock=conn,
        )
        conn.close()
        assert status == 200
        assert first == second

    def test_unparseable_body_still_gets_the_worker_400(self, cluster):
        status, _, body, _ = _request(
            cluster.port, "POST", "/v1/speedup", b"{broken"
        )
        assert status == 400
        assert json.loads(body)["error"]

    def test_healthz_reports_topology_and_fleet(self, cluster):
        status, _, body, _ = _request(cluster.port, "GET", "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["role"] == "router"
        assert payload["topology"] == {
            "workers": 2, "routing": "rendezvous",
        }
        workers = payload["cluster"]["workers"]
        assert sorted(workers) == ["w1", "w2"]
        assert all(entry["alive"] for entry in workers.values())


class TestMetrics:
    def test_json_metrics_merge_all_workers(self, cluster):
        _request(cluster.port, "POST", "/v1/speedup", SPEEDUP_BODY)
        status, _, body, _ = _request(cluster.port, "GET", "/metrics")
        assert status == 200
        snapshot = json.loads(body)
        assert sorted(snapshot["workers"]) == ["w1", "w2"]
        assert snapshot["cluster"]["topology"]["workers"] == 2
        assert "repro_cluster_requests_total" in snapshot["router"]

    def test_prometheus_merge_validates(self, cluster):
        _request(cluster.port, "POST", "/v1/speedup", SPEEDUP_BODY)
        status, headers, body, _ = _request(
            cluster.port, "GET", "/metrics?format=prom"
        )
        assert status == 200
        text = body.decode()
        for label in ('worker="router"', 'worker="w1"', 'worker="w2"'):
            assert label in text, text[:500]
        # One TYPE header per family even with three sources merged.
        assert text.count("# TYPE repro_requests_total ") <= 1
        validate_prometheus(
            text,
            required=(
                "repro_cluster_requests_total",
                "repro_cluster_workers",
            ),
        )


class TestJobs:
    def test_job_scatter_gather_resolves_worker_local_ids(self, cluster):
        spec = json.dumps({"name": "t", "figures": ["F6"]}).encode()
        status, _, body, _ = _request(
            cluster.port, "POST", "/v1/jobs", spec
        )
        assert status == 202, body
        job_id = json.loads(body)["job_id"]
        deadline = time.monotonic() + 60
        state = None
        while time.monotonic() < deadline:
            status, _, body, _ = _request(
                cluster.port, "GET", f"/v1/jobs/{job_id}"
            )
            assert status == 200, body
            state = json.loads(body)["state"]
            if state in ("succeeded", "failed"):
                break
            time.sleep(0.1)
        assert state == "succeeded", state

    def test_unknown_job_id_is_a_clean_404(self, cluster):
        status, _, body, _ = _request(
            cluster.port, "GET", "/v1/jobs/no-such-job"
        )
        assert status == 404
        assert json.loads(body)["error"]


class TestTracePropagation:
    def test_one_trace_spans_router_and_worker(self, cluster):
        trace_id = "ab" * 16  # 32-hex: adopted as the trace id
        status, headers, _ = _request_with_headers(
            cluster.port, "POST", "/v1/speedup", SPEEDUP_BODY,
            {"X-Request-Id": trace_id},
        )
        assert status == 200
        assert headers["x-request-id"] == trace_id
        assert headers["x-trace-id"] == trace_id
        # The worker that served it recorded spans under the same id.
        found = []
        for port in cluster.supervisor.ports().values():
            status, _, body, _ = _request(
                port, "GET", f"/v1/traces?trace_id={trace_id}"
            )
            assert status == 200
            found.extend(json.loads(body)["spans"])
        assert found, "no worker recorded the forwarded trace id"
        assert any(
            span["name"] == "http.request" for span in found
        )


class TestWorkerDeath:
    """Satellite 3: kill a serving worker and watch the seams hold."""

    def _pick_victims(self, names):
        """A speedup body and a GET path owned by the same worker."""
        get_path = "/v1/slo"
        victim = rendezvous_owner(get_path, names)
        for f in (0.99, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.5, 0.3):
            body = json.dumps(
                {"workload": "mmm", "f": f, "design": "GTX480"}
            ).encode()
            if rendezvous_owner(shard_key("/v1/speedup", body), names) == victim:
                return victim, body, get_path
        pytest.fail("no speedup body hashed onto the /v1/slo owner")

    def test_kill_mid_keep_alive(self):
        harness = _Cluster(workers=2, respawn_backoff_s=0.05).start()
        try:
            names = harness.config.worker_names()
            victim, body, get_path = self._pick_victims(names)
            survivor = [n for n in names if n != victim][0]

            status, _, healthy_body, _ = _request(
                harness.port, "POST", "/v1/speedup", body
            )
            assert status == 200

            # Freeze the respawner, and freeze the liveness view so
            # the router has not yet *observed* the death -- the
            # moment a real crash is racing the watchdog.
            original_poll = harness.supervisor.poll
            original_alive = harness.supervisor.alive
            frozen_alive = dict(original_alive())
            harness.supervisor.poll = lambda: []
            harness.supervisor.alive = lambda: dict(frozen_alive)
            try:
                harness.kill_worker(victim)

                # In-flight POST to the dead owner: an honest one-line
                # 503, never a silent retry of a non-idempotent call.
                status, _, error_body, _ = _request(
                    harness.port, "POST", "/v1/speedup", body
                )
                assert status == 503, error_body
                payload = json.loads(error_body)
                assert payload["error"] == "UpstreamError"
                assert "\n" not in payload["message"]

                # Idempotent GET owned by the corpse: retried onto the
                # survivor transparently.
                status, _, slo_body, _ = _request(
                    harness.port, "GET", get_path
                )
                assert status == 200, slo_body
                retried = harness.router._requests.value(
                    worker=victim, outcome="retried"
                )
                assert retried >= 1
            finally:
                harness.supervisor.alive = original_alive

            try:
                # Death now observed (alive() is live again): the
                # fleet is degraded but every request fails over.
                status, _, hz, _ = _request(harness.port, "GET", "/healthz")
                assert status == 200
                assert json.loads(hz)["status"] == "degraded"
                status, _, failover_body, _ = _request(
                    harness.port, "POST", "/v1/speedup", body
                )
                assert status == 200
                assert failover_body == healthy_body
            finally:
                harness.supervisor.poll = original_poll

            # Watchdog respawns under the same name; rendezvous hands
            # the replacement its old keys and answers go bit-identical.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status, _, hz, _ = _request(harness.port, "GET", "/healthz")
                if status == 200 and json.loads(hz)["status"] == "ok":
                    break
                time.sleep(0.1)
            payload = json.loads(hz)
            assert payload["status"] == "ok", payload
            assert payload["cluster"]["workers"][victim]["respawns"] == 1
            assert survivor not in [
                name
                for name, entry in payload["cluster"]["workers"].items()
                if entry["respawns"]
            ]

            status, _, reborn_body, _ = _request(
                harness.port, "POST", "/v1/speedup", body
            )
            assert status == 200
            assert reborn_body == healthy_body
        finally:
            harness.stop()

    def test_every_fan_out_answers_from_the_survivor(self):
        """Each fan-out drops a dead worker, answers from the survivor
        alone, and nudges the supervisor to poll."""
        harness = _Cluster(workers=2, respawn_backoff_s=30.0).start()
        try:
            job = json.dumps({"figures": ["F6"]}).encode()
            names = harness.config.worker_names()
            survivor = rendezvous_owner(shard_key("/v1/jobs", job), names)
            victim = [n for n in names if n != survivor][0]
            status, _, body, _ = _request(
                harness.port, "POST", "/v1/jobs", job
            )
            assert status == 202, body
            job_id = json.loads(body)["job_id"]

            # Count only the router's own nudges: its watchdog polls
            # from an executor thread on a timer.
            nudges = []
            router_thread = harness._thread
            frozen_alive = dict(harness.supervisor.alive())
            harness.supervisor.alive = lambda: dict(frozen_alive)
            harness.supervisor.poll = lambda: nudges.append(
                threading.current_thread() is router_thread
            ) or []
            harness.kill_worker(victim)

            def ask(path):
                before = nudges.count(True)
                status, _, body, _ = _request(harness.port, "GET", path)
                assert status == 200, (path, body)
                assert nudges.count(True) > before, path
                return body

            for path in ("/metrics", "/v1/traces", "/v1/profile?seconds=0"):
                assert sorted(json.loads(ask(path))["workers"]) == [
                    survivor
                ], path
            text = ask("/metrics?format=prom").decode()
            assert f'worker="{survivor}"' in text
            assert f'worker="{victim}"' not in text
            assert json.loads(ask(f"/v1/jobs/{job_id}"))["job_id"] == job_id
            events = json.loads(ask(f"/v1/events?job_id={job_id}&cursor=0"))
            assert events["stream"] == job_id and events["events"]
        finally:
            harness.stop()

    def test_stuck_worker_is_bounded_by_the_deadline(self):
        """A worker that is alive but stopped (SIGSTOP) costs each
        request at most the service's request deadline."""
        harness = _Cluster(
            workers=2, respawn_backoff_s=30.0, request_timeout_s=1.0
        ).start()
        names = harness.config.worker_names()
        victim, body, _get_path = self._pick_victims(names)
        survivor = [n for n in names if n != victim][0]
        pid = harness.supervisor._slots[victim].process.pid
        try:
            status, _, _, _ = _request(
                harness.port, "POST", "/v1/speedup", body
            )
            assert status == 200
            os.kill(pid, signal.SIGSTOP)

            def timed(method, path, payload=b""):
                conn = socket.create_connection(
                    ("127.0.0.1", harness.port), timeout=10
                )
                start = time.monotonic()
                status, _, answer, _ = _request(
                    harness.port, method, path, payload, sock=conn
                )
                assert time.monotonic() - start < 5.0, path
                return status, answer

            status, metrics = timed("GET", "/metrics")
            assert status == 200
            assert sorted(json.loads(metrics)["workers"]) == [survivor]
            status, error = timed("POST", "/v1/speedup", body)
            assert status == 503, error
            payload = json.loads(error)
            assert payload["error"] == "UpstreamError"
            assert "\n" not in payload["message"]
        finally:
            os.kill(pid, signal.SIGCONT)
            harness.stop()

    def test_all_workers_dead_is_503_unavailable(self):
        harness = _Cluster(workers=1, respawn_backoff_s=30.0).start()
        try:
            original_poll = harness.supervisor.poll
            harness.supervisor.poll = lambda: []
            try:
                harness.kill_worker("w1")
                status, _, body, _ = _request(
                    harness.port, "GET", "/healthz"
                )
                assert status == 503
                assert json.loads(body)["status"] == "unavailable"
                status, _, body, _ = _request(
                    harness.port, "POST", "/v1/speedup", SPEEDUP_BODY
                )
                assert status == 503
                assert json.loads(body)["error"] == "UpstreamError"
            finally:
                harness.supervisor.poll = original_poll
        finally:
            harness.stop()
