"""Worker process lifecycle for multi-worker serving.

``repro-hetsim serve --workers N`` spawns N worker processes (start
method pinned to ``spawn`` -- identical semantics on Linux/macOS, no
inherited locks or event loops), each running the unmodified
single-process :class:`~repro.service.app.ModelService` on its own
ephemeral port with its own micro-batcher, LRU cache, and tensor map.

Port discovery is race-free: each worker binds its listening socket
*before* reporting, sending the bound port back over a
``multiprocessing.Pipe``, and the already-bound socket is handed to
:func:`~repro.service.http.serve_until`.  By the time the supervisor
knows a port, connections to it succeed.

Worker death is detected by :meth:`WorkerSupervisor.poll` (the router
calls it on a timer) and answered with respawn-with-backoff: the
replacement keeps the dead worker's *name*, so rendezvous hashing
hands it exactly the key range it owned before -- a crash costs one
shard a cache warm-up, nothing more.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
import signal
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ServiceError
from ..obs.logging import configure_logging, get_logger, log_event
from ..obs.metrics import MetricsRegistry
from ..obs.metrics import get_registry as _global_registry
from ..service.app import ModelService, ServiceConfig

__all__ = ["ClusterConfig", "WorkerSupervisor", "run_cluster_server"]

_log = get_logger("cluster")

#: How long a spawned worker gets to bind and report its port.
WORKER_START_TIMEOUT_S = 30.0

#: How the router maps requests to workers (stamped into BENCH
#: envelopes so baselines never mix routing disciplines).
ROUTING = "rendezvous"


@dataclass(frozen=True)
class ClusterConfig:
    """Topology of one serving cluster."""

    #: Number of worker processes (each a full ModelService).
    workers: int = 2
    #: Base per-worker service configuration.  Each worker gets a copy
    #: with ``port=0`` (workers always bind ephemeral ports; only the
    #: router's address is public).
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Router bind address.
    host: str = "127.0.0.1"
    port: int = 8000
    #: Respawn backoff: ``base * 2**consecutive_failures``, capped.
    respawn_backoff_s: float = 0.5
    respawn_backoff_cap_s: float = 10.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")

    def worker_names(self) -> List[str]:
        return [f"w{index}" for index in range(1, self.workers + 1)]

    def topology(self) -> Dict[str, object]:
        """The envelope stamp: enough to tell two setups apart."""
        return {"workers": self.workers, "routing": ROUTING}


def _worker_main(
    name: str,
    config: ServiceConfig,
    conn: "multiprocessing.connection.Connection",
) -> None:
    """Spawn target: bind, report the port, serve until SIGTERM."""
    import asyncio

    from ..service.http import serve_until

    configure_logging(config.log_level)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        listener.bind((config.host, 0))
        # Listen *before* reporting: once the supervisor knows the
        # port, connections must already be accepted (queued in the
        # backlog until the event loop starts serving).
        listener.listen(128)
    except OSError as exc:
        conn.send({"worker": name, "error": str(exc)})
        conn.close()
        return
    port = listener.getsockname()[1]
    conn.send({"worker": name, "port": port})
    conn.close()

    async def _main() -> None:
        service = ModelService(config)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await serve_until(service, stop, sock=listener)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class _WorkerSlot:
    """Book-keeping for one named worker slot across respawns."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.process: Optional[multiprocessing.Process] = None
        self.port: Optional[int] = None
        self.respawns = 0
        self.consecutive_failures = 0
        self.next_spawn_at = 0.0  # monotonic deadline for backoff


class WorkerSupervisor:
    """Spawn, watch, respawn, and stop the worker fleet."""

    def __init__(
        self,
        config: ClusterConfig,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self._ctx = multiprocessing.get_context("spawn")
        self._slots = {
            name: _WorkerSlot(name) for name in config.worker_names()
        }
        reg = registry if registry is not None else _global_registry()
        self.registry = reg
        self._respawns = reg.counter(
            "repro_cluster_worker_respawns_total",
            "Serving workers respawned after unexpected death",
        )
        reg.gauge(
            "repro_cluster_workers",
            "Serving worker processes currently alive",
            callback=lambda: float(sum(self.alive().values())),
        )
        reg.gauge(
            "repro_cluster_workers_configured",
            "Serving worker processes in the configured topology",
            callback=lambda: float(config.workers),
        )

    # ------------------------------------------------------------------

    def start(self) -> Dict[str, int]:
        """Spawn every worker; returns ``{name: port}`` once all bound."""
        for slot in self._slots.values():
            self._spawn(slot)
        return self.ports()

    def _spawn(self, slot: _WorkerSlot) -> None:
        worker_config = dataclasses.replace(
            self.config.service, host=self.config.host, port=0
        )
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(slot.name, worker_config, child_conn),
            name=f"repro-worker-{slot.name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(WORKER_START_TIMEOUT_S):
            process.terminate()
            raise ServiceError(
                f"worker {slot.name} did not report a port within "
                f"{WORKER_START_TIMEOUT_S:.0f}s"
            )
        try:
            report = parent_conn.recv()
        except EOFError:
            process.terminate()
            raise ServiceError(
                f"worker {slot.name} died before reporting a port"
            )
        finally:
            parent_conn.close()
        if "error" in report:
            raise ServiceError(
                f"worker {slot.name} failed to bind: {report['error']}"
            )
        slot.process = process
        slot.port = int(report["port"])
        log_event(
            _log, "worker.started", worker=slot.name, port=slot.port,
            pid=process.pid,
        )

    # ------------------------------------------------------------------

    def ports(self) -> Dict[str, int]:
        return {
            name: slot.port
            for name, slot in self._slots.items()
            if slot.port is not None
        }

    def endpoints(self) -> Dict[str, Tuple[str, int]]:
        return {
            name: (self.config.host, port)
            for name, port in self.ports().items()
        }

    def alive(self) -> Dict[str, bool]:
        return {
            name: bool(slot.process is not None and slot.process.is_alive())
            for name, slot in self._slots.items()
        }

    def liveness(self) -> Dict[str, object]:
        """The ``/healthz`` worker section."""
        alive = self.alive()
        return {
            "alive": sum(alive.values()),
            "configured": self.config.workers,
            "workers": {
                name: {
                    "alive": alive[name],
                    "port": slot.port,
                    "respawns": slot.respawns,
                }
                for name, slot in sorted(self._slots.items())
            },
        }

    def poll(self) -> List[str]:
        """Respawn dead workers whose backoff has elapsed.

        Returns the names respawned this call.  A worker that keeps
        dying backs off exponentially (``respawn_backoff_s`` doubling
        up to ``respawn_backoff_cap_s``) instead of crash-looping; the
        counter resets once a replacement is observed alive on a later
        poll.
        """
        respawned: List[str] = []
        now = time.monotonic()
        for slot in self._slots.values():
            if slot.process is not None and slot.process.is_alive():
                slot.consecutive_failures = 0
                continue
            if slot.process is None:
                continue  # never started; start() raises instead
            if now < slot.next_spawn_at:
                continue
            slot.process.join(timeout=0)
            backoff = min(
                self.config.respawn_backoff_s
                * (2 ** slot.consecutive_failures),
                self.config.respawn_backoff_cap_s,
            )
            slot.consecutive_failures += 1
            slot.next_spawn_at = now + backoff
            old_port = slot.port
            try:
                self._spawn(slot)
            except ServiceError as exc:
                log_event(
                    _log, "worker.respawn_failed", worker=slot.name,
                    error=str(exc),
                )
                continue
            slot.respawns += 1
            self._respawns.inc(worker=slot.name)
            respawned.append(slot.name)
            log_event(
                _log, "worker.respawned", worker=slot.name,
                old_port=old_port, port=slot.port, backoff_s=backoff,
            )
        return respawned

    def stop(self, timeout_s: float = 10.0) -> None:
        """SIGTERM every worker (graceful drain), then join/kill."""
        for slot in self._slots.values():
            if slot.process is not None and slot.process.is_alive():
                slot.process.terminate()
        deadline = time.monotonic() + timeout_s
        for slot in self._slots.values():
            if slot.process is None:
                continue
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=1.0)
        log_event(_log, "cluster.stopped")


def run_cluster_server(config: ClusterConfig) -> None:
    """Blocking entry point used by ``repro-hetsim serve --workers N``.

    Boots the worker fleet, then runs the router in the foreground
    until SIGTERM/SIGINT; workers are drained (their own graceful
    shutdown path) before the router exits.
    """
    import asyncio

    from .router import Router

    configure_logging(config.service.log_level)
    supervisor = WorkerSupervisor(config)
    supervisor.start()
    router = Router(config, supervisor)

    async def _main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await router.serve_until(stop)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        supervisor.stop()
