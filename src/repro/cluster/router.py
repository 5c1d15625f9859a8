"""Asyncio front-end proxying keep-alive HTTP/1.1 onto the worker fleet.

The router is deliberately thin: it terminates client connections,
computes each request's shard key (:func:`~repro.cluster.hashring
.shard_key`), forwards the request to the rendezvous owner over a
pooled keep-alive upstream connection, and relays the response.  All
model work happens in workers; the router never parses a model
payload.  ``/healthz`` reflects fleet liveness: 200 ``ok``, 200
``degraded`` while a respawn is pending, 503 when no worker serves.

**One fan-out.**  Every question for the whole fleet goes through
:meth:`Router._scatter`: one request to every worker concurrently,
the survivors' answers back, and each caller keeps only its merge
rule -- ``/metrics`` (JSON ``{"cluster", "router", "workers"}`` or a
Prometheus merge with ``worker`` labels), ``/v1/traces`` (spans tagged
by ``worker``, newest ``limit`` of one time-ordered view, eviction
summed), ``/v1/profile`` (one folded profile, stacks led by a
``worker:wN`` frame), ``/v1/jobs/{id}`` (worker-local ids: first
non-404 wins) and the ``/v1/events`` owner probe (first 200 wins; the
owner's response, chunked SSE tail included, is spliced through byte
for byte).  The router's own ``cluster`` stream of worker respawns is
served locally.

**One request contract.**  Query arguments are parsed by the worker's
own helpers (:mod:`repro.service.schemas`, :mod:`repro.service.events`)
and every :class:`~repro.errors.ServiceError` is answered the way the
worker answers it, so a bad request gets the same status and body
bytes on either path.

**Traces.**  The router opens the root ``router.request`` span and
forwards its trace id as ``X-Request-Id``; the worker adopts a 32-hex
request id as its trace id, so one request is one trace across both
processes.

**Failure semantics.**  Every upstream exchange has a response
deadline: the service's ``request_timeout_s``, plus the capture window
for ``/v1/profile``.  A worker that dies, or stalls past it, is an
:class:`UpstreamError`: an idempotent GET is retried on the
next-ranked worker, an in-flight POST gets an honest one-line 503 (the
worker may or may not have executed it), a fan-out answers from the
survivors, and the supervisor is nudged to poll-and-respawn.  Only the
spliced event tail has no read deadline: it is unbounded by design.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, quote

from ..errors import BadRequestError, ServiceError
from ..obs.logging import get_logger, log_event
from ..obs.metrics import MetricsRegistry, render_merged
from ..obs.prof import FoldedProfile
from ..obs.stream import EventBus
from ..obs.trace import get_tracer
from ..service.app import ModelService, _error_payload
from ..service.events import (
    EventStreamResponse,
    events_response,
    parse_events_query,
)
from ..service.http import (
    TextPayload,
    _encode_response,
    _ProtocolError,
    _read_request,
    write_stream_response,
)
from ..service.schemas import parse_limit, parse_profile_query
from .hashring import rendezvous_rank, shard_key
from .prommerge import merge_expositions
from .supervisor import ClusterConfig, WorkerSupervisor

__all__ = ["Router", "UpstreamError"]

_log = get_logger("cluster.router")

#: How often the router checks worker liveness and respawns the dead.
POLL_INTERVAL_S = 0.25

#: Upstream connect timeout; workers are local processes, so short.
CONNECT_TIMEOUT_S = 5.0

#: Endpoints the router answers itself; like the worker, GET only.
_ROUTER_GETS = frozenset(
    {"/healthz", "/metrics", "/v1/traces", "/v1/profile", "/v1/events"}
)

#: One upstream answer: ``(status, headers, body)``.
Response = Tuple[int, Dict[str, str], bytes]

Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


class UpstreamError(Exception):
    """A worker could not be reached, died or stalled mid-response."""


async def _read_upstream_response(reader: asyncio.StreamReader) -> Response:
    """One HTTP/1.1 response off an upstream stream."""
    status_line = await reader.readline()
    if not status_line:
        raise UpstreamError("upstream closed before responding")
    parts = status_line.decode("latin-1").strip().split(" ", 2)
    if len(parts) < 2:
        raise UpstreamError(f"malformed status line {status_line!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise UpstreamError(f"malformed status {parts[1]!r}")
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


async def _exchange(conn: Connection, request: bytes) -> Response:
    """Write one request on ``conn`` and read its response."""
    reader, writer = conn
    writer.write(request)
    await writer.drain()
    return await _read_upstream_response(reader)


def _encode_upstream_request(
    method: str, path: str, headers: Dict[str, str], body: bytes
) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "Host: worker"]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: keep-alive")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _decode_payload(headers: Dict[str, str], body: bytes):
    """An upstream body as an :func:`_encode_response` payload."""
    content_type = headers.get("content-type", "")
    if content_type.startswith("application/json"):
        try:
            return json.loads(body)
        except ValueError:
            return body.decode("utf-8", "replace")
    return body.decode("utf-8", "replace")


def _ok_payloads(answers: Dict[str, Response]) -> Dict[str, Dict[str, Any]]:
    """The JSON object of every 200 answer, by worker."""
    payloads = {}
    for worker, (status, headers, body) in answers.items():
        payload = _decode_payload(headers, body) if status == 200 else None
        if isinstance(payload, dict):
            payloads[worker] = payload
    return payloads


def _query(path: str) -> Dict[str, List[str]]:
    return parse_qs(path.partition("?")[2])


class Router:
    """Shard-aware reverse proxy over a :class:`WorkerSupervisor`."""

    def __init__(
        self,
        config: ClusterConfig,
        supervisor: WorkerSupervisor,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.supervisor = supervisor
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self.tracer = get_tracer()
        self._requests = self.registry.counter(
            "repro_cluster_requests_total",
            "Requests routed to serving workers by outcome",
        )
        self._latency = self.registry.histogram(
            "repro_cluster_request_seconds",
            "Router-observed request latency in seconds",
        )
        # Idle upstream keep-alive connections, keyed by (worker, port)
        # so connections to a pre-respawn incarnation die with its port.
        self._pools: Dict[Tuple[str, int], List[Connection]] = {}
        self._started_monotonic = time.monotonic()
        #: The actually-bound listening port, set once serving (tests
        #: and the embedded bench pass ``port=0``).
        self.bound_port: Optional[int] = None
        #: Cluster-lifecycle events no single worker can observe
        #: (respawns seen by the watchdog), served from the always-open
        #: ``cluster`` stream of a router-local bus.
        self.events = EventBus(registry=self.registry)
        self.events.ensure_stream("cluster")

    # ------------------------------------------------------------------
    # upstream plumbing

    def _checkout(self, worker: str, port: int) -> Optional[Connection]:
        pool = self._pools.get((worker, port))
        while pool:
            reader, writer = pool.pop()
            if not writer.is_closing():
                return reader, writer
        return None

    def _checkin(self, worker: str, port: int, conn: Connection) -> None:
        self._pools.setdefault((worker, port), []).append(conn)

    async def _connect(self, port: int) -> Connection:
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(self.config.host, port),
                timeout=CONNECT_TIMEOUT_S,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise UpstreamError(f"connect to port {port} failed: {exc}")

    def _response_deadline(self, path: str) -> float:
        """Seconds a worker gets to answer ``path``: the service's
        request deadline, plus the capture window of a profile."""
        deadline = self.config.service.request_timeout_s
        if path.startswith("/v1/profile?"):
            deadline += parse_profile_query(_query(path))[0]
        return deadline

    async def _upstream_request(
        self,
        worker: str,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Response:
        """One request to one worker, reusing a pooled connection.

        A pooled connection that fails is retried once on a fresh
        connection (it merely went stale while idle); failure on the
        fresh connection means the worker itself is gone.  A worker
        that does not answer within the response deadline is stuck:
        the connection is closed, never pooled again (a late reply
        must not answer the next request), and not retried.  Every
        failure raises :class:`UpstreamError`.
        """
        port = self.supervisor.ports().get(worker)
        if port is None:
            raise UpstreamError(f"worker {worker} has no port")
        request = _encode_upstream_request(method, path, headers, body)
        deadline = self._response_deadline(path)
        conn = self._checkout(worker, port)
        stale_retry = conn is not None
        while True:
            if conn is None:
                conn = await self._connect(port)
            try:
                response = await asyncio.wait_for(
                    _exchange(conn, request), deadline
                )
            except asyncio.TimeoutError:
                conn[1].close()
                raise UpstreamError(
                    f"worker {worker} did not answer within {deadline:g}s"
                )
            except (
                UpstreamError,
                ConnectionError,
                asyncio.IncompleteReadError,
            ) as exc:
                conn[1].close()
                if not stale_retry:
                    raise UpstreamError(
                        f"worker {worker} died mid-request: {exc}"
                    )
                conn, stale_retry = None, False
                continue
            self._checkin(worker, port, conn)
            return response

    async def _scatter(
        self,
        workers: List[str],
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes = b"",
    ) -> Dict[str, Response]:
        """Send one request to every listed worker concurrently.

        Returns ``{worker: (status, headers, body)}`` for the workers
        that answered, in sorted worker order.  A worker that failed
        is left out, and any failure nudges the supervisor to poll.
        """

        async def ask(worker: str) -> Optional[Response]:
            try:
                return await self._upstream_request(
                    worker, method, path, headers, body
                )
            except UpstreamError:
                return None

        workers = sorted(workers)
        answers = await asyncio.gather(*map(ask, workers))
        if None in answers:
            self.supervisor.poll()
        return {
            worker: answer
            for worker, answer in zip(workers, answers)
            if answer is not None
        }

    def _alive_workers(self) -> List[str]:
        return sorted(
            name
            for name, alive in self.supervisor.alive().items()
            if alive and name in self.supervisor.ports()
        )

    # ------------------------------------------------------------------
    # request handling

    async def handle_request(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, object, Dict[str, str]]:
        """Route one request; mirrors ``ModelService.handle_request``."""
        start = time.perf_counter()
        headers = dict(headers or {})
        request_id, trace_id = ModelService._request_identity(headers)
        bare_path = path.partition("?")[0]
        span = self.tracer.span(
            "router.request",
            trace_id=trace_id,
            attributes={
                "method": method,
                "path": bare_path,
                "request_id": request_id,
            },
        )
        with span:
            # The worker adopts a 32-hex X-Request-Id as its trace id,
            # so forwarding our trace id joins both processes' spans
            # into one trace.
            upstream_headers = {
                "X-Request-Id": span.trace_id,
                "Content-Type": headers.get(
                    "content-type", "application/json"
                ),
            }
            try:
                status, payload, worker = await self._route(
                    method, path, bare_path, upstream_headers, body
                )
            except ServiceError as exc:
                # The worker's own contract, so the bytes match it.
                status, payload, worker = (
                    exc.http_status, _error_payload(exc), "router",
                )
            except UpstreamError as exc:
                status, payload, worker = 503, _error_payload(exc), "none"
                self.supervisor.poll()
            span.set_attribute("status", status)
            span.set_attribute("worker", worker)
        latency = time.perf_counter() - start
        outcome = "ok" if status < 500 else "error"
        self._requests.inc(worker=worker, outcome=outcome)
        self._latency.observe(latency)
        log_event(
            _log,
            "router.access",
            method=method,
            path=bare_path,
            status=status,
            worker=worker,
            latency_ms=round(latency * 1000, 3),
            request_id=request_id,
            trace_id=span.trace_id,
        )
        return status, payload, {
            "X-Request-Id": request_id,
            "X-Trace-Id": span.trace_id,
        }

    async def _route(
        self,
        method: str,
        path: str,
        bare_path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, object, str]:
        """(status, payload, worker_label) for one routed request."""
        if bare_path in _ROUTER_GETS:
            ModelService._require_method(method, "GET", bare_path)
        if bare_path == "/healthz":
            return self._healthz() + ("router",)
        if bare_path == "/metrics":
            return await self._metrics(path, headers) + ("router",)
        if bare_path == "/v1/traces":
            return await self._traces(path, headers) + ("router",)
        if bare_path == "/v1/profile":
            return await self._profile(path, headers) + ("router",)
        if bare_path == "/v1/events":
            # Worker-owned streams are spliced raw in
            # ``_handle_connection``; router-local streams, bad queries
            # and streams no worker owns are answered here.
            return 200, events_response(self.events, _query(path)), "router"
        if bare_path.startswith("/v1/jobs/"):
            return await self._job(method, path, headers, body)
        workers = self._alive_workers()
        if not workers:
            raise UpstreamError("no live workers")
        key = shard_key(bare_path, body)
        if key is None:
            # No locality to preserve: any worker will do; spread by
            # rendezvous on the path so unkeyed traffic still balances.
            key = bare_path
        ranked = rendezvous_rank(key, workers)
        last_error: Optional[UpstreamError] = None
        for attempt, worker in enumerate(ranked):
            try:
                status, response_headers, response_body = (
                    await self._upstream_request(
                        worker, method, path, headers, body
                    )
                )
            except UpstreamError as exc:
                last_error = exc
                self.supervisor.poll()
                if method != "GET":
                    # Non-idempotent: the worker may or may not have
                    # executed it; an honest 503 beats a silent retry.
                    raise UpstreamError(
                        f"worker {worker} failed mid-{method}: {exc}"
                    )
                if attempt + 1 < len(ranked):
                    self._requests.inc(worker=worker, outcome="retried")
                continue
            return status, _decode_payload(
                response_headers, response_body
            ), worker
        raise last_error or UpstreamError("no live workers")

    def _healthz(self) -> Tuple[int, object]:
        liveness = self.supervisor.liveness()
        alive = liveness["alive"]
        configured = liveness["configured"]
        if alive == 0:
            status, state = 503, "unavailable"
        elif alive < configured:
            status, state = 200, "degraded"
        else:
            status, state = 200, "ok"
        return status, {
            "status": state,
            "role": "router",
            "topology": self.config.topology(),
            "cluster": liveness,
        }

    # ------------------------------------------------------------------
    # fan-outs: one scatter each, then the endpoint's merge rule

    async def _metrics(
        self, path: str, headers: Dict[str, str]
    ) -> Tuple[int, object]:
        answers = await self._scatter(
            self._alive_workers(), "GET", path, headers
        )
        if "format=prom" in path:
            expositions = {
                worker: body.decode("utf-8", "replace")
                for worker, (status, _headers, body) in answers.items()
                if status == 200
            }
            # The supervisor's fleet gauges (worker counts, respawns)
            # live in its own registry; merge them into the router's
            # series so one scrape covers routing *and* liveness.
            expositions["router"] = render_merged(
                self.registry, self.supervisor.registry
            )
            return 200, merge_expositions(expositions)
        return 200, {
            "cluster": {
                "topology": self.config.topology(),
                "liveness": self.supervisor.liveness(),
                "uptime_s": round(
                    time.monotonic() - self._started_monotonic, 3
                ),
            },
            "router": self.registry.snapshot(),
            "workers": _ok_payloads(answers),
        }

    async def _job(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, object, str]:
        """``/v1/jobs/{id}``: ids are worker-local, so ask everyone;
        the first non-404 answer in worker order wins."""
        answers = await self._scatter(
            self._alive_workers(), method, path, headers, body
        )
        if not answers:
            raise UpstreamError("no worker answered the job lookup")
        worker = next(
            (w for w, answer in answers.items() if answer[0] != 404),
            next(iter(answers)),
        )
        status, response_headers, response_body = answers[worker]
        return status, _decode_payload(
            response_headers, response_body
        ), worker

    async def _traces(
        self, path: str, headers: Dict[str, str]
    ) -> Tuple[int, object]:
        """``GET /v1/traces``: one merged view of every ring buffer.

        A clustered request's trace crosses processes: the router's
        ``router.request`` span and the owning worker's spans share
        one trace id but live in different buffers.  Each span is
        tagged with its ``worker`` (the router's own as ``router``),
        the merge is in global start-time order, and eviction is summed
        fleet-wide so a partial merged trace still says so.
        """
        query = _query(path)
        limit = parse_limit(query)
        answers = await self._scatter(
            self._alive_workers(), "GET", path, headers
        )
        sources = {
            worker: (payload.get("spans", []), payload.get("buffer", {}))
            for worker, payload in _ok_payloads(answers).items()
        }
        router_stats = self.tracer.stats()
        sources["router"] = (
            self.tracer.spans(
                trace_id=query.get("trace_id", [None])[0], limit=limit
            ),
            router_stats,
        )
        spans: List[Dict[str, object]] = []
        dropped = 0
        for worker, (worker_spans, buffer) in sources.items():
            spans.extend(dict(span, worker=worker) for span in worker_spans)
            if isinstance(buffer, dict):
                dropped += int(buffer.get("dropped", 0) or 0)
        spans.sort(key=lambda s: s.get("start_unix", 0.0))
        if limit is not None:
            # Per-source limits already applied; keep the *newest*
            # ``limit`` of the merged view, matching the single-node
            # endpoint's recency bias.
            spans = spans[len(spans) - limit:] if limit else []
        payload: Dict[str, object] = {
            "spans": spans,
            "count": len(spans),
            "workers": {
                worker: buffer
                for worker, (_spans, buffer) in sources.items()
                if worker != "router"
            },
            "router": router_stats,
        }
        if dropped:
            payload["eviction"] = {
                "dropped": dropped,
                "note": (
                    f"ring buffers evicted {dropped} span(s) across "
                    f"the fleet; traces may be incomplete -- raise the "
                    f"buffer size or export with --trace-file for a "
                    f"full record"
                ),
            }
        return 200, payload

    async def _profile(
        self, path: str, headers: Dict[str, str]
    ) -> Tuple[int, object]:
        """``GET /v1/profile``: every worker sampled, one merged view.

        The capture windows run concurrently (total wall time is one
        ``seconds``, not workers x seconds).  Each worker's profile is
        tagged ``worker="wN"`` and folded into a merged profile whose
        stacks gain a leading ``worker:wN`` frame, so the per-worker
        attribution survives inside the flamegraph itself.  The router
        process does not sample; it only aggregates.
        """
        seconds, fmt = parse_profile_query(_query(path))
        answers = await self._scatter(
            self._alive_workers(),
            "GET",
            f"/v1/profile?seconds={seconds:g}&format=json",
            headers,
        )
        per_worker = _ok_payloads(answers)
        if not per_worker:
            raise UpstreamError("no worker answered the profile capture")
        merged = FoldedProfile()
        for worker, payload in per_worker.items():
            payload["worker"] = worker
            try:
                profile = FoldedProfile.from_payload(payload)
            except (TypeError, ValueError):
                continue
            merged.merge(profile, prefix=f"worker:{worker}")
        if fmt == "folded":
            return 200, TextPayload(merged.to_text())
        doc = merged.payload()
        doc["top"] = merged.top_self(10)
        return 200, {
            "seconds": seconds,
            "workers": per_worker,
            "merged": doc,
        }

    async def _stream_owner(self, path: str) -> Optional[str]:
        """The worker owning a ``GET /v1/events`` stream, or ``None``
        when the router answers the request itself.

        A bad query or a router-local stream stays here; otherwise a
        zero-limit batch read probes every worker, and the first to
        answer 200 holds the stream.
        """
        try:
            stream, _cursor = parse_events_query(_query(path))
        except BadRequestError:
            return None
        if self.events.known(stream):
            return None
        probe = (
            f"/v1/events?stream={quote(stream, safe='')}&cursor=0&limit=0"
        )
        answers = await self._scatter(
            self._alive_workers(),
            "GET",
            probe,
            {"Content-Type": "application/json"},
        )
        return next(
            (w for w, answer in answers.items() if answer[0] == 200), None
        )

    async def _proxy_events(
        self, writer: asyncio.StreamWriter, path: str, owner: str
    ) -> None:
        """Splice a worker-owned ``/v1/events`` response to the client.

        The owning worker shapes the response (JSON batch or chunked
        SSE tail); the router relays its bytes verbatim on a fresh
        ``Connection: close`` upstream so a long tail never pins a
        pooled connection.  The relay has no read deadline: a tail is
        unbounded by design.  A worker dying mid-tail simply ends the
        relay -- the client reconnects with its last cursor and the
        durable replay path fills the gap.
        """
        try:
            port = self.supervisor.ports().get(owner)
            if port is None:
                raise UpstreamError(f"worker {owner} has no port")
            upstream_reader, upstream_writer = await self._connect(port)
        except UpstreamError as exc:
            self.supervisor.poll()
            writer.write(
                _encode_response(503, _error_payload(exc), keep_alive=False)
            )
            await writer.drain()
            return
        request_bytes = (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: worker\r\n"
            f"Content-Length: 0\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        self._requests.inc(worker=owner, outcome="streamed")
        log_event(_log, "router.events_proxy", worker=owner, path=path)
        try:
            upstream_writer.write(request_bytes)
            await upstream_writer.drain()
            while True:
                chunk = await upstream_reader.read(65536)
                if not chunk:
                    return
                writer.write(chunk)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            upstream_writer.close()

    # ------------------------------------------------------------------
    # server loop

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _ProtocolError as exc:
                    writer.write(
                        _encode_response(
                            exc.status, _error_payload(exc), False
                        )
                    )
                    await writer.drain()
                    return
                except asyncio.IncompleteReadError:
                    return
                if request is None:
                    return
                method, path, headers, body = request
                if method == "GET" and path.partition("?")[0] == (
                    "/v1/events"
                ):
                    owner = await self._stream_owner(path)
                    if owner is not None:
                        # Splice the owner's raw response (possibly an
                        # unbounded SSE tail) instead of buffering it
                        # through _route.
                        await self._proxy_events(writer, path, owner)
                        return
                status, payload, response_headers = (
                    await self.handle_request(method, path, body, headers)
                )
                if isinstance(payload, EventStreamResponse):
                    await write_stream_response(
                        writer, status, payload, response_headers
                    )
                    return
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                writer.write(
                    _encode_response(
                        status, payload, keep_alive, response_headers
                    )
                )
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def serve_until(
        self,
        stop: "asyncio.Event",
        host: Optional[str] = None,
        port: Optional[int] = None,
        ready: Optional["asyncio.Event"] = None,
    ) -> None:
        """Serve and watch the fleet until ``stop`` is set."""
        connections: Set["asyncio.Task"] = set()

        async def _tracked(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            task = asyncio.current_task()
            connections.add(task)
            try:
                await self._handle_connection(reader, writer)
            finally:
                connections.discard(task)

        server = await asyncio.start_server(
            _tracked,
            self.config.host if host is None else host,
            self.config.port if port is None else port,
        )
        bound = server.sockets[0].getsockname()
        self.bound_port = bound[1]
        log_event(
            _log,
            "router.listening",
            host=bound[0],
            port=bound[1],
            **self.config.topology(),
        )
        if ready is not None:
            ready.set()

        async def _watchdog() -> None:
            while not stop.is_set():
                respawned = await asyncio.get_running_loop().run_in_executor(
                    None, self.supervisor.poll
                )
                for worker in respawned:
                    self._requests.inc(worker=worker, outcome="respawned")
                    # Fleet watchers see the respawn the moment the
                    # watchdog does, not on their next /metrics poll.
                    self.events.publish(
                        "cluster",
                        "worker.respawn",
                        data={"worker": worker},
                    )
                try:
                    await asyncio.wait_for(
                        stop.wait(), timeout=POLL_INTERVAL_S
                    )
                except asyncio.TimeoutError:
                    pass

        watchdog = asyncio.ensure_future(_watchdog())
        try:
            await stop.wait()
        finally:
            watchdog.cancel()
            server.close()
            await server.wait_closed()
            if connections:
                _, still_open = await asyncio.wait(
                    connections,
                    timeout=self.config.service.drain_timeout_s,
                )
                for task in still_open:
                    task.cancel()
            for pool in self._pools.values():
                for _reader, pooled_writer in pool:
                    pooled_writer.close()
            self._pools.clear()
            log_event(_log, "router.shutdown")
