"""Transport-independent request handling for the serving layer.

:class:`ModelService` owns the whole request lifecycle:

1. **Route** -- ``GET /healthz``, ``GET /metrics``, ``GET /v1/slo``,
   and the three model endpoints (``/v1/speedup``, ``/v1/sweep``,
   ``/v1/optimize``).
2. **Parse** -- strict JSON-schema validation into frozen request
   dataclasses (400 on any violation).
3. **Cache** -- an LRU keyed on the request dataclass; a hit is
   answered immediately and never reaches the dispatcher.
4. **Admit** -- a semaphore caps concurrent evaluations; when the
   wait queue is full the request is shed with 429, and an admitted
   request that exceeds the evaluation deadline gets 503.
5. **Evaluate** -- budgets resolve through the memoized
   :func:`~repro.projection.engine.node_budget` and the r-sweep runs
   through the :class:`~repro.service.batching.MicroBatcher`, so
   concurrent compatible requests share one NumPy grid call.
6. **Account** -- per-request structured JSON access logs and the
   :class:`~repro.service.metrics.ServiceMetrics` counters behind
   ``GET /metrics``.

The class is deliberately transport-free (``handle(method, path,
body) -> (status, payload)``) so tests drive the full lifecycle
in-process; :mod:`repro.service.http` adds the asyncio socket layer.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs

from .._version import __version__
from ..campaign.jobs import JobManager
from ..obs.context import new_span_id
from ..obs.logging import get_logger, log_event
from ..obs.metrics import get_registry, render_merged
from ..obs.prof import DEFAULT_HZ, acquire_sampler, release_sampler
from ..obs.slo import SLObjective, SLOTracker
from ..obs.stream import EventBus
from ..obs.trace import get_tracer
from ..core.optimizer import optimize
from ..devices.bce import DEFAULT_BCE
from ..errors import (
    BadRequestError,
    InfeasibleDesignError,
    MethodNotAllowedError,
    ModelError,
    NotFoundError,
    ReproError,
    ServiceError,
    ServiceTimeoutError,
    TooManyRequestsError,
)
from ..itrs.scenarios import get_scenario
from ..projection.designs import DesignSpec, standard_designs
from ..projection.engine import node_budget
from .batching import MicroBatcher
from .events import events_response
from .metrics import ServiceMetrics
from .respcache import ResponseCache
from .tensor import TensorServing, TransportFastPath
from .schemas import (
    OptimizeRequest,
    SpeedupRequest,
    SweepRequest,
    design_point_payload,
    parse_dse,
    parse_job,
    parse_limit,
    parse_optimize,
    parse_profile_query,
    parse_speedup,
    parse_sweep,
    request_payload,
)

__all__ = ["ServiceConfig", "ModelService"]

_access_log = get_logger("service.access")

#: Client request ids that can double as W3C-shaped trace ids.
_TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")

#: Request-id header values are echoed back; cap and sanitise them so
#: a hostile client cannot smuggle header-splitting bytes through us.
_REQUEST_ID_SAFE_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one server instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Width of the micro-batching coalescing window.  0 still
    #: coalesces requests arriving in the same event-loop tick.
    batch_window_ms: float = 2.0
    #: Maximum concurrently evaluating requests.
    max_inflight: int = 8
    #: Requests allowed to wait for a slot before 429 shedding.
    queue_depth: int = 64
    #: Per-request evaluation deadline (seconds) before 503.
    request_timeout_s: float = 10.0
    #: LRU response-cache capacity (entries).
    cache_size: int = 1024
    #: Worker threads evaluating NumPy grid calls off the event loop.
    workers: int = 2
    #: Root of the campaign result store backing ``POST /v1/jobs``;
    #: None keeps job results in an ephemeral temporary directory.
    store_dir: Optional[str] = None
    #: Worker threads per background campaign job.
    job_task_workers: int = 2
    #: Graceful-shutdown budget: seconds to drain open connections and
    #: running jobs after SIGTERM/SIGINT before exiting anyway.
    drain_timeout_s: float = 5.0
    #: Append every finished span as one JSON line to this file
    #: (``serve --trace-file``); None keeps spans in memory only.
    trace_file: Optional[str] = None
    #: Log level for the structured JSON logs (``--log-level`` /
    #: ``REPRO_LOG_LEVEL``); None resolves through the environment.
    log_level: Optional[str] = None
    #: Declarative latency/error objectives per endpoint; None takes
    #: :data:`repro.obs.slo.DEFAULT_OBJECTIVES`.
    slo_objectives: Optional[Tuple["SLObjective", ...]] = None
    #: Directory of a materialized tensor store (``repro-hetsim
    #: materialize build``); None serves everything live.  A store
    #: that fails its integrity checks is quarantined (served around,
    #: reported in ``/healthz``), never trusted.
    tensor_dir: Optional[str] = None
    #: Continuous sampling profiler (``GET /v1/profile``).  Default-on:
    #: the sampler costs well under the 2% overhead budget gated by
    #: ``make bench-profile``; ``serve --no-profile`` turns it off.
    profile: bool = True
    #: Stack sampling rate for the continuous profiler.
    profile_hz: float = DEFAULT_HZ


class ModelService:
    """The serving layer's request broker (transport-independent).

    One instance per server; use it from a single event loop (the
    admission semaphore binds to the first loop that awaits it).
    Call :meth:`close` when done to release the worker threads.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        #: The per-instance obs registry backing both /metrics forms.
        self.registry = self.metrics.registry
        self.tracer = get_tracer()
        if self.config.trace_file is not None:
            self.tracer.set_export_path(self.config.trace_file)
        self.cache = ResponseCache(maxsize=self.config.cache_size)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-service",
        )
        self.batcher = MicroBatcher(
            window_s=self.config.batch_window_ms / 1000.0,
            executor=self._executor,
            metrics=self.metrics,
        )
        self._semaphore = asyncio.Semaphore(self.config.max_inflight)
        self._waiting = 0
        #: Per-instance SLO accounting; its repro_slo_* gauges render
        #: through the same registry as the request counters.
        self.slo = SLOTracker(
            objectives=self.config.slo_objectives,
            registry=self.registry,
        )
        #: The live telemetry plane: one stream per campaign job plus
        #: the always-on ``slo`` stream, served by ``GET /v1/events``.
        self.events = EventBus(registry=self.registry)
        self.events.ensure_stream("slo")
        self.slo.add_alert_hook(self._publish_slo_alert)
        self.jobs = JobManager(
            store_dir=self.config.store_dir,
            task_workers=self.config.job_task_workers,
            metrics=self.metrics,
            registry=self.registry,
            events=self.events,
        )
        #: Materialized serving (None when --tensor-dir is not given).
        self.tensor: Optional[TensorServing] = (
            TensorServing.open(self.config.tensor_dir)
            if self.config.tensor_dir is not None
            else None
        )
        #: Transport byte cache; only armed over a *ready* store.
        self.fastpath: Optional[TransportFastPath] = (
            TransportFastPath(self)
            if self.tensor is not None and self.tensor.ready
            else None
        )
        if self.tensor is not None and self.tensor.ready:
            built = self.tensor.built_unix()
            if built is not None:
                self.registry.gauge(
                    "repro_tensorstore_build_age_seconds",
                    "Seconds since the served tensor store was built",
                    callback=lambda: max(0.0, time.time() - built),
                )
        #: The continuous sampling profiler behind ``GET /v1/profile``.
        #: Refcounted process-global: many services (tests build
        #: dozens) share one sampling thread; :meth:`close` releases
        #: this instance's reference.
        self.sampler = (
            acquire_sampler(self.config.profile_hz)
            if self.config.profile
            else None
        )
        self._sampler_held = self.sampler is not None

    def close(self) -> None:
        """Drain jobs, flush the campaign store, release the worker
        threads and the profiler reference (idempotent)."""
        if self.fastpath is not None:
            self.fastpath.drain()
        self.jobs.close(drain_timeout_s=self.config.drain_timeout_s)
        self._executor.shutdown(wait=False)
        if self._sampler_held:
            self._sampler_held = False
            release_sampler()

    # -- entry point -------------------------------------------------------

    async def handle(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, Dict[str, Any]]:
        """Answer one request: ``(http_status, json_payload)``.

        The historical two-tuple form; the transport uses
        :meth:`handle_request`, which also returns response headers
        (``X-Request-Id``/``X-Trace-Id`` echo).
        """
        status, payload, _headers = await self.handle_request(
            method, path, body
        )
        return status, payload

    async def handle_request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any, Dict[str, str]]:
        """Answer one request: ``(status, payload, response_headers)``.

        ``payload`` is a JSON-ready dict for every endpoint except the
        Prometheus exposition, which is pre-rendered text (the
        transport picks the content type by payload type).  Never
        raises for request-level failures -- every error becomes a
        ``{"error", "message"}`` payload with the matching status.

        Each request runs inside a root span: the trace id honours a
        client-supplied ``X-Request-Id`` when it is already a 32-hex
        trace id, else a fresh trace is started and the request id
        (generated if absent) rides along as a span attribute and a
        response header.
        """
        start = time.perf_counter()
        headers = headers or {}
        request_id, trace_id = self._request_identity(headers)
        path, _, query_text = path.partition("?")
        query = parse_qs(query_text) if query_text else {}
        cache_state: Optional[bool] = None
        span = self.tracer.span(
            "http.request",
            trace_id=trace_id,
            attributes={
                "method": method,
                "path": path,
                "request_id": request_id,
            },
        )
        with span:
            try:
                status, payload, cache_state = await self._dispatch(
                    method, path, body, query, request_id
                )
            except ServiceError as exc:
                status, payload = exc.http_status, _error_payload(exc)
            except InfeasibleDesignError as exc:
                # Parsed fine, but the budgets admit no design: 422,
                # with the model's binding-bound message passed through.
                status, payload = 422, _error_payload(exc)
            except ReproError as exc:
                # Any other intentional model error is a client error.
                status, payload = 400, _error_payload(exc)
            span.set_attribute("status", status)
            if cache_state is not None:
                span.set_attribute(
                    "cache", "hit" if cache_state else "miss"
                )
        latency = time.perf_counter() - start
        # Deferred fast-path accounting drains first so its (older)
        # capture timestamps reach the SLO tracker before this event's.
        if self.fastpath is not None:
            self.fastpath.drain()
        self.metrics.record_request(
            path, status, latency, cache_state, trace_id=span.trace_id
        )
        self.slo.record(path, latency, error=status >= 500)
        self._log_access(
            method, path, status, latency, cache_state,
            request_id=request_id, trace_id=span.trace_id,
        )
        response_headers = {
            "X-Request-Id": request_id,
            "X-Trace-Id": span.trace_id,
        }
        return status, payload, response_headers

    @staticmethod
    def _request_identity(
        headers: Dict[str, str]
    ) -> Tuple[str, Optional[str]]:
        """``(request_id, trace_id)`` for one request.

        A client-supplied ``X-Request-Id`` is echoed back verbatim
        when it is header-safe (else replaced); when it is shaped like
        a trace id it *becomes* the trace id, so a caller can stitch
        our spans into its own trace.
        """
        supplied = headers.get("x-request-id", "").strip()
        if supplied and _TRACE_ID_RE.match(supplied):
            return supplied, supplied
        if supplied and _REQUEST_ID_SAFE_RE.match(supplied):
            return supplied, None
        return new_span_id(), None

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        query: Dict[str, Any],
        request_id: str,
    ) -> Tuple[int, Any, Optional[bool]]:
        if path == "/healthz":
            self._require_method(method, "GET", path)
            self._drain_fastpath()
            return self._healthz() + (None,)
        if path == "/metrics":
            self._require_method(method, "GET", path)
            self._drain_fastpath()
            if query.get("format", [""])[0] == "prom":
                self.slo.refresh_gauges()
                text = render_merged(self.registry, get_registry())
                return 200, text, None
            snapshot = self.metrics.snapshot()
            snapshot["campaign"] = self.jobs.stats()
            snapshot["slo"] = self.slo.snapshot()
            snapshot["events"] = self.events.stats()
            if self.tensor is not None:
                snapshot["tensorstore"]["store"] = self.tensor.status()
                if self.fastpath is not None:
                    snapshot["tensorstore"]["fastpath"] = (
                        self.fastpath.stats()
                    )
            return 200, snapshot, None
        if path == "/v1/slo":
            self._require_method(method, "GET", path)
            self._drain_fastpath()
            return 200, self.slo.snapshot(), None
        if path == "/v1/traces":
            self._require_method(method, "GET", path)
            return 200, self._traces(query), None
        if path == "/v1/profile":
            self._require_method(method, "GET", path)
            return 200, await self._profile(query), None
        if path == "/v1/events":
            self._require_method(method, "GET", path)
            return 200, events_response(self.events, query), None
        if path == "/v1/jobs":
            if method == "POST":
                spec = parse_job(_decode_json(body))
                record = self.jobs.submit(spec, request_id=request_id)
                return 202, self.jobs.payload(record), None
            self._require_method(method, "GET", path)
            return 200, {"jobs": self.jobs.list_payload()}, None
        if path == "/v1/dse":
            self._require_method(method, "POST", path)
            try:
                spec = parse_dse(_decode_json(body))
            except BadRequestError:
                self.metrics.record_dse("invalid", "rejected")
                raise
            mode = "halving" if spec.dse_halving else "pareto"
            record = self.jobs.submit(spec, request_id=request_id)
            self.metrics.record_dse(mode, "accepted")
            return 202, self.jobs.payload(record), None
        if path.startswith("/v1/jobs/"):
            self._require_method(method, "GET", path)
            job_id = path[len("/v1/jobs/"):]
            record = self.jobs.get(job_id)
            if record is None:
                raise NotFoundError(f"no job {job_id!r}")
            return 200, self.jobs.payload(record), None
        if path == "/v1/speedup":
            self._require_method(method, "POST", path)
            request = parse_speedup(_decode_json(body))
            answered = self._tensor_eval(request, "speedup")
            if answered is not None:
                return answered
            return await self._cached_eval(request, self._eval_speedup)
        if path == "/v1/sweep":
            self._require_method(method, "POST", path)
            request = parse_sweep(_decode_json(body))
            answered = self._tensor_eval(request, "sweep")
            if answered is not None:
                return answered
            return await self._cached_eval(request, self._eval_sweep)
        if path == "/v1/optimize":
            self._require_method(method, "POST", path)
            request = parse_optimize(_decode_json(body))
            answered = self._tensor_eval(request, "optimize")
            if answered is not None:
                return answered
            return await self._cached_eval(request, self._eval_optimize)
        raise NotFoundError(f"no route for {path!r}")

    def _drain_fastpath(self) -> None:
        """Flush deferred fast-path accounting before a metrics read."""
        if self.fastpath is not None:
            self.fastpath.drain()

    def _tensor_eval(
        self, request, kind: str
    ) -> Optional[Tuple[int, Dict[str, Any], Optional[bool]]]:
        """Try the materialized store; None means fall back to live.

        Every attempt lands in ``repro_tensorstore_requests_total``:
        ``hit`` (exact grid cell), ``interp`` (harmonic interpolation),
        or ``fallback`` (the store refused -- off-grid, quarantined,
        infeasible, or unknown names -- and the live path now owns the
        request, including its exact error behaviour).
        """
        if self.tensor is None:
            return None
        with self.tracer.span(
            "tensor.lookup", attributes={"endpoint": kind}
        ) as span:
            answered = getattr(self.tensor, f"{kind}_payload")(request)
            outcome = "fallback" if answered is None else answered[1]
            span.set_attribute("outcome", outcome)
        self.metrics.record_tensor(outcome)
        if answered is None:
            return None
        return 200, answered[0], None

    @staticmethod
    def _require_method(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise MethodNotAllowedError(
                f"{path} only accepts {expected}, got {method}"
            )

    def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        """Liveness *and* readiness: can this instance actually serve?

        ``store`` checks the campaign store is open and its root is
        reachable; ``dispatcher`` checks the evaluation thread pool is
        still accepting work.  Any failed check degrades the answer to
        503 so load balancers stop routing here while the process is
        shutting down (or its disk has gone away).
        """
        checks = {
            "store": self.jobs.is_open() and self.jobs.store_ok(),
            "dispatcher": not getattr(
                self._executor, "_shutdown", False
            ),
        }
        healthy = all(checks.values())
        payload = {
            "status": "ok" if healthy else "degraded",
            "version": __version__,
            "uptime_s": self.metrics.snapshot()["uptime_s"],
            "checks": checks,
            # Informational only: a burning SLO means "stop deploying",
            # not "stop routing", so it never degrades the 200/503
            # readiness contract above.
            "slo": self.slo.overall_status(),
        }
        if self.tensor is not None:
            # Also informational: a quarantined tensor store costs
            # speed (every request falls back to live compute), never
            # correctness, so it does not flip readiness either.
            payload["tensor"] = self.tensor.status()
        return (200 if healthy else 503), payload

    def _publish_slo_alert(self, alert: Dict[str, Any]) -> None:
        """SLO burn episodes land on the always-open ``slo`` stream."""
        self.events.publish("slo", "slo.alert", data=alert)

    async def _profile(self, query: Dict[str, Any]) -> Any:
        """``GET /v1/profile``: one sampled window off the live process.

        ``seconds`` (default 1, max 60) is the capture window --
        request time is dominated by it by design; ``seconds=0`` skips
        the wait and returns everything sampled since the profiler
        started.  ``format=json`` (default) returns the folded stacks
        plus a top-N self-time table; ``format=folded`` returns the
        raw collapsed-stack text that flamegraph.pl and speedscope
        ingest directly.
        """
        if self.sampler is None:
            raise _ProfilerDisabledError(
                "the continuous profiler is off on this instance "
                "(started with --no-profile)"
            )
        seconds, fmt = parse_profile_query(query)
        if seconds > 0:
            mark = self.sampler.mark()
            await asyncio.sleep(seconds)
            profile = self.sampler.window_since(mark)
        else:
            profile = self.sampler.profile()
        if fmt == "folded":
            from .http import TextPayload  # late: http imports app

            return TextPayload(profile.to_text())
        doc = profile.payload()
        doc["top"] = profile.top_self(10)
        return doc

    def _traces(self, query: Dict[str, Any]) -> Dict[str, Any]:
        """The ``GET /v1/traces`` payload: buffered spans, filtered."""
        spans = self.tracer.spans(
            trace_id=query.get("trace_id", [None])[0],
            limit=parse_limit(query),
        )
        stats = self.tracer.stats()
        payload = {
            "spans": spans,
            "count": len(spans),
            "buffer": stats,
        }
        dropped = stats.get("dropped", 0)
        if dropped:
            # Eviction is no longer silent: a partial trace says so.
            payload["eviction"] = {
                "dropped": dropped,
                "note": (
                    f"ring buffer evicted {dropped} span(s); traces "
                    f"may be incomplete -- raise the buffer size or "
                    f"export with --trace-file for a full record"
                ),
            }
        return payload

    # -- cache + admission -------------------------------------------------

    async def _cached_eval(
        self, request, evaluator
    ) -> Tuple[int, Dict[str, Any], bool]:
        hit = self.cache.get(request)
        if hit is not None:
            return 200, hit, True
        payload = await self._admit_and_run(evaluator, request)
        self.cache.put(request, payload)
        return 200, payload, False

    async def _admit_and_run(self, evaluator, request) -> Dict[str, Any]:
        if (
            self._semaphore.locked()
            and self._waiting >= self.config.queue_depth
        ):
            self.metrics.record_shed()
            raise TooManyRequestsError(
                f"server at capacity: {self.config.max_inflight} "
                f"in flight and {self._waiting} queued "
                f"(queue_depth={self.config.queue_depth})"
            )
        self._waiting += 1
        try:
            await self._semaphore.acquire()
        finally:
            self._waiting -= 1
        self.metrics.inflight_started()
        try:
            return await asyncio.wait_for(
                evaluator(request), self.config.request_timeout_s
            )
        except asyncio.TimeoutError:
            self.metrics.record_timeout()
            raise ServiceTimeoutError(
                f"evaluation exceeded the "
                f"{self.config.request_timeout_s:g}s deadline"
            ) from None
        finally:
            self.metrics.inflight_finished()
            self._semaphore.release()

    # -- evaluators --------------------------------------------------------

    def _find_design(self, workload: str, fft_size, label: str) -> DesignSpec:
        designs = {
            d.short_label: d for d in standard_designs(workload, fft_size)
        }
        try:
            return designs[label]
        except KeyError:
            raise BadRequestError(
                f"unknown design {label!r} for workload {workload!r}; "
                f"available: {sorted(designs)}"
            ) from None

    def _node(self, scenario, node_nm: Optional[int]):
        if node_nm is None:
            return scenario.roadmap.nodes[-1]
        try:
            return scenario.roadmap.node(node_nm)
        except ModelError as exc:
            raise BadRequestError(str(exc)) from None

    async def _eval_speedup(self, req: SpeedupRequest) -> Dict[str, Any]:
        scenario = get_scenario(req.scenario)
        design = self._find_design(req.workload, req.fft_size, req.design)
        node = self._node(scenario, req.node_nm)
        budget = node_budget(
            node, req.workload, req.fft_size, scenario, DEFAULT_BCE,
            design.bandwidth_exempt,
        )
        point = await self.batcher.evaluate(
            design.chip, req.f, budget, req.r_max
        )
        if point is None:
            # Re-run the scalar path to raise the exact binding-bound
            # message (error path only; the happy path never pays this).
            optimize(design.chip, req.f, budget, req.r_max)
            raise InfeasibleDesignError(
                f"no feasible design for {design.label} under {budget}"
            )  # pragma: no cover - optimize() raises first
        return {
            "request": request_payload(req),
            "node": node.label,
            "point": design_point_payload(point),
        }

    async def _eval_sweep(self, req: SweepRequest) -> Dict[str, Any]:
        scenario = get_scenario(req.scenario)
        design = self._find_design(req.workload, req.fft_size, req.design)
        nodes = scenario.roadmap.nodes
        budgets = [
            node_budget(
                node, req.workload, req.fft_size, scenario,
                DEFAULT_BCE, design.bandwidth_exempt,
            )
            for node in nodes
        ]
        points = await asyncio.gather(
            *(
                self.batcher.evaluate(design.chip, req.f, b, req.r_max)
                for b in budgets
            )
        )
        cells = []
        for node, point in zip(nodes, points):
            cells.append(
                {
                    "node": node.label,
                    "node_nm": node.node_nm,
                    "feasible": point is not None,
                    "point": (
                        design_point_payload(point) if point else None
                    ),
                }
            )
        return {
            "request": request_payload(req),
            "design": design.label,
            "cells": cells,
        }

    async def _eval_optimize(self, req: OptimizeRequest) -> Dict[str, Any]:
        scenario = get_scenario(req.scenario)
        node = self._node(scenario, req.node_nm)
        designs = standard_designs(req.workload, req.fft_size)
        budgets = [
            node_budget(
                node, req.workload, req.fft_size, scenario,
                DEFAULT_BCE, design.bandwidth_exempt,
            )
            for design in designs
        ]
        points = await asyncio.gather(
            *(
                self.batcher.evaluate(d.chip, req.f, b, req.r_max)
                for d, b in zip(designs, budgets)
            )
        )
        candidates = []
        best = None
        for design, point in zip(designs, points):
            candidates.append(
                {
                    "design": design.label,
                    "feasible": point is not None,
                    "point": (
                        design_point_payload(point) if point else None
                    ),
                }
            )
            if point is not None and (
                best is None or point.speedup > best[1].speedup
            ):
                best = (design, point)
        if best is None:
            raise InfeasibleDesignError(
                f"no design is feasible for {req.workload} at "
                f"{node.label} under scenario {scenario.name!r}"
            )
        return {
            "request": request_payload(req),
            "node": node.label,
            "winner": {
                "design": best[0].label,
                "point": design_point_payload(best[1]),
            },
            "candidates": candidates,
        }

    # -- logging -----------------------------------------------------------

    def _log_access(
        self,
        method: str,
        path: str,
        status: int,
        latency: float,
        cache_state: Optional[bool],
        request_id: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        log_event(
            _access_log,
            "access",
            level=logging.INFO,
            method=method,
            path=path,
            status=status,
            latency_ms=round(latency * 1e3, 3),
            cache=(
                None
                if cache_state is None
                else ("hit" if cache_state else "miss")
            ),
            request_id=request_id,
            trace_id=trace_id,
        )


class _ProfilerDisabledError(ServiceError):
    http_status = 503


def _decode_json(body: bytes) -> Any:
    if not body:
        raise BadRequestError("request body is empty; expected JSON")
    try:
        return json.loads(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise BadRequestError(f"request body is not valid JSON: {exc}")


def _error_payload(exc: Exception) -> Dict[str, Any]:
    name = type(exc).__name__.lstrip("_")
    return {"error": name, "message": str(exc)}
