"""The serving phase: ``repro-hetsim serve`` as a child process.

For the ``serve`` workload, set-up builds the tensor store with
``materialize build`` and boots ``serve --tensor-dir``; the ``live``
workload boots plain ``serve``, which answers everything live.  Every
other option stays at its shipped default; the benchmark sets only
ports, directories and where output goes.  Traffic comes from this
process over at most ``nproc`` keep-alive connections, in three timed
phases: an open loop at a fixed light rate, an open loop at a fixed
heavy rate, and a closed loop.

The traced run adds a fleet leg: the same store behind ``serve
--workers 2`` (the smallest router fleet the CLI allows), which the
class probes cross through the router and, for the hot class, also
straight to the worker that owns each request.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import (
    Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple,
)

from . import corpus as corpus_mod
from . import loadgen, spans, stats

ROOT = Path(__file__).resolve().parent.parent
HOST = "127.0.0.1"
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
BOOT_TIMEOUT_S = 60.0

#: Fixed arrival rates (requests per second) of the open-loop phases.
LIGHT_RPS = 200.0
HEAVY_RPS = {"serve": 500.0, "live": 300.0}
#: Split of the measured seconds between the serving phases (the
#: campaign phase takes the rest).  The open-loop phases run at least
#: long enough for p99 to have ten samples beyond it (per class at the
#: light rate).
LIGHT_SHARE, HEAVY_SHARE, CLOSED_SHARE = 0.5, 0.1, 0.1
#: Rounds of light open loop and closed loop per run.  The host's
#: speed drifts over tens of seconds, so the rounds are spread over the
#: whole run (between set-ups and campaign cycles) and the class
#: metrics take their median over rounds.
ROUNDS = 6
#: Requests per class in the traced run's class-isolation probes.
PROBE_REQUESTS = 300
#: Workers of the traced run's fleet leg.
FLEET_WORKERS = 2


def child_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(extra or {})
    return env


def build_tensors(directory: str, log) -> None:
    """``materialize build`` into ``directory``."""
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "materialize", "build",
         "--dir", directory],
        cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        check=True, timeout=300,
    )


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def http_json(port: int, path: str, timeout: float = 10.0) -> Any:
    with urllib.request.urlopen(
        f"http://{HOST}:{port}{path}", timeout=timeout
    ) as response:
        return json.loads(response.read())


def _stat(pid) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name (so index
    1 is the parent pid, 11/12 user/system ticks, 19 the start time)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


# -- the server process --------------------------------------------------------


class Server:
    """One ``serve`` process, with a tensor store when ``tensor_dir``
    and a router in front of ``workers`` processes when more than 1."""

    def __init__(self, tensor_dir: Optional[str], log_path: str,
                 spans_dir: Optional[str] = None, workers: int = 1):
        self.tensor_dir = tensor_dir
        self.log_path = log_path
        self.spans_dir = spans_dir
        self.workers = workers
        self.port = free_port()
        self.proc: Optional[subprocess.Popen] = None
        self._log = None

    def start(self) -> None:
        args = ["serve", "--port", str(self.port)]
        if self.tensor_dir is not None:
            args += ["--tensor-dir", self.tensor_dir]
        if self.workers > 1:
            args += ["--workers", str(self.workers)]
        extra = {}
        if self.spans_dir is not None:
            command = [sys.executable, str(ROOT / "perfbench" / "server_main.py")]
            extra["PERFBENCH_SPANS_DIR"] = self.spans_dir
        else:
            command = [sys.executable, "-m", "repro.cli"]
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            command + args, cwd=ROOT, env=child_env(extra),
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} at boot; "
                    f"see {self.log_path}"
                )
            try:
                if self._ready():
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.05)
        raise RuntimeError(f"server not ready in {BOOT_TIMEOUT_S:g}s")

    def _ready(self) -> bool:
        health = http_json(self.port, "/healthz", timeout=2.0)
        if self.workers > 1:
            if health.get("status") != "ok":
                return False
            ports = self.worker_ports().values()
        else:
            ports = [self.port]
        if self.tensor_dir is None:
            return health.get("status") == "ok"
        return all(
            http_json(port, "/healthz", timeout=2.0)
            .get("tensor", {}).get("status") == "ready"
            for port in ports
        )

    def worker_ports(self) -> Dict[str, int]:
        """``{worker name: port}`` of a fleet, from the router."""
        health = http_json(self.port, "/healthz", timeout=2.0)
        return {
            name: worker["port"]
            for name, worker in health["cluster"]["workers"].items()
        }

    def pids(self) -> List[int]:
        """The server process and all its descendants."""
        parents: Dict[int, List[int]] = {}
        for entry in os.listdir("/proc"):
            fields = _stat(entry) if entry.isdigit() else None
            if fields is not None:
                parents.setdefault(int(fields[1]), []).append(int(entry))
        out, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            out.append(pid)
            todo.extend(parents.get(pid, []))
        return out

    def threads(self) -> List[int]:
        """Thread ids of every process of the server."""
        out = []
        for pid in self.pids():
            try:
                out += [int(tid) for tid in os.listdir(f"/proc/{pid}/task")]
            except OSError:
                continue
        return out

    def cpu_seconds(self) -> float:
        ticks = os.sysconf("SC_CLK_TCK")
        total = 0
        for pid in self.pids():
            fields = _stat(pid)
            if fields is not None:
                total += int(fields[11]) + int(fields[12])
        return total / ticks

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory (VmHWM) of the server processes."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def metrics(self) -> Dict[str, Any]:
        return http_json(self.port, "/metrics")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL whatever of the
        process tree is left; returns once the server has exited."""
        if self.proc is None:
            return
        # (pid, start time): never signal a recycled pid.
        tree = [(pid, (_stat(pid) or [None] * 20)[19]) for pid in self.pids()]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        for pid, started in tree:
            fields = _stat(pid)
            if fields is None or fields[19] != started:
                continue
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        self.proc.wait()
        self._log.close()
        self.proc = None


# -- counters the program exposes ----------------------------------------------


def counters(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Service counters from ``GET /metrics``."""
    tensor = snapshot.get("tensorstore", {})
    return {
        "respcache.hits": snapshot["cache"]["hits"],
        "respcache.misses": snapshot["cache"]["misses"],
        "batch.dispatches": snapshot["batching"]["dispatches"],
        "batch.items": snapshot["batching"]["items"],
        "shed": snapshot["shed"],
        "timeouts": snapshot["timeouts"],
        "tensor.hit": tensor.get("hit", 0),
        "tensor.interp": tensor.get("interp", 0),
        "tensor.fallback": tensor.get("fallback", 0),
    }


def delta(after: Dict[str, float], before: Dict[str, float]
          ) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


# -- driving traffic -----------------------------------------------------------


class Client:
    """``CONNECTIONS`` keep-alive connections to one port."""

    def __init__(self, port: int, connections: int = CONNECTIONS):
        self.port = port
        self.connections = connections
        self.conns: List[loadgen.Connection] = []

    async def __aenter__(self) -> "Client":
        self.conns = [
            await loadgen.Connection(HOST, self.port).open()
            for _ in range(self.connections)
        ]
        return self

    async def __aexit__(self, *exc) -> None:
        for conn in self.conns:
            await conn.close()

    def send(self, index: int, request: corpus_mod.Request):
        return self.conns[index].request("POST", request.path, request.body)

    async def run_list(self, requests: Sequence[corpus_mod.Request]
                       ) -> loadgen.PhaseResult:
        return await loadgen.closed_loop(
            iter(requests), self.send, self.connections, 1e9
        )


class Plan:
    """The seeded traffic of one run, fixed before any server boots."""

    def __init__(self, workload: str, seed: int, seconds: float):
        need = stats.MIN_BEYOND * 100 + 10  # samples for p99
        self.corpus = corpus_mod.Corpus(seed)
        c = self.corpus
        self.warmup = c.warmup()
        light_s = max(LIGHT_SHARE * seconds,
                      need / min(corpus_mod.CLASS_SHARES.values())
                      / LIGHT_RPS)
        self.light = c.schedule(LIGHT_RPS, light_s)
        # The light phase runs in rounds, each re-based to start at 0.
        size = -(-len(self.light) // ROUNDS)
        self.light_rounds = [
            [(t - part[0][0], req) for t, req in part]
            for part in (
                self.light[i:i + size]
                for i in range(0, len(self.light), size)
            )
        ]
        heavy_rps = HEAVY_RPS[workload]
        self.heavy = c.schedule(heavy_rps, max(HEAVY_SHARE * seconds,
                                               need / heavy_rps))
        self.closed_s = CLOSED_SHARE * seconds
        self.probes = {
            cls: [c.draw(cls) for _ in range(PROBE_REQUESTS)]
            for cls in corpus_mod.CLASSES
        }
        self.stream = c.stream()
        self.digest = corpus_mod.digest(
            self.warmup + self.light + self.heavy
        )


@contextlib.contextmanager
def one_cpu(server: Server):
    """Run this thread and every thread of ``server`` on one CPU.

    Across CPUs, each request pays for waking the other virtual CPU,
    which on a shared host costs more the busier the host is: on a
    2-vCPU virtual machine the p50 of a 0.3 ms request moved 15-40%
    with the host's load.  On one CPU the server runs as soon as the
    client waits, with no wake-up in between.  Threads get their CPUs
    back on the way out.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        yield
        return

    def pin(mask) -> None:
        os.sched_setaffinity(0, mask)
        for tid in server.threads():
            try:
                os.sched_setaffinity(tid, mask)
            except OSError:
                pass  # the thread has ended

    pin({max(cpus)})
    try:
        yield
    finally:
        pin(cpus)


def _drive(server: Server, body: Callable[[Client], Awaitable[Any]]) -> Any:
    """Run ``body(client)`` on fresh connections with the collector
    off: no collector pauses inside the load generator."""

    async def main():
        async with Client(server.port) as client:
            return await body(client)

    gc.collect()
    gc.disable()
    try:
        with asyncio.Runner(loop_factory=loadgen.new_loop) as runner:
            return runner.run(main())
    finally:
        gc.enable()


def _merged(rounds: List[loadgen.PhaseResult]) -> loadgen.PhaseResult:
    out = loadgen.PhaseResult()
    for phase in rounds:
        out.results += phase.results
        out.backlog += [(out.elapsed_s + t, b) for t, b in phase.backlog]
        out.elapsed_s += phase.elapsed_s
    return out


def run_phases(server: Server, plan: Plan, closed: bool = True,
               between: Callable[[], Optional[Server]] = lambda: None
               ) -> Dict[str, Any]:
    """Warm-up, then :data:`ROUNDS` rounds of light open loop (and a
    closed-loop slice when ``closed``), then the heavy open loop.

    ``between()`` runs between rounds, with no traffic in flight: the
    caller spreads its campaign cycles and set-ups over the run that
    way, and each metric pools samples taken at several points of the
    run.  When ``between()`` returns a new server, the rounds after it
    go there, after a warm-up of their own; the counter snapshots
    (``before``/``after``) are then left out, as they need one server.
    """
    out: Dict[str, Any] = {"cpu_s": 0.0}
    warm = [_drive(server, lambda c: c.run_list(plan.warmup))]
    switched = False
    out["before"] = counters(server.metrics())
    out["t0"] = time.perf_counter()
    light, closed_rounds = [], []
    for k, schedule in enumerate(plan.light_rounds):
        fresh = between() if k else None
        if fresh is not None:
            server, switched = fresh, True
            warm.append(_drive(server, lambda c: c.run_list(plan.warmup)))
        with one_cpu(server):
            light.append(_drive(server, lambda c: loadgen.open_loop(
                schedule, c.send, c.connections
            )))
        if closed:
            cpu0 = server.cpu_seconds()
            closed_rounds.append(_drive(server, lambda c: loadgen.closed_loop(
                plan.stream, c.send, c.connections, plan.closed_s / ROUNDS
            )))
            out["cpu_s"] += server.cpu_seconds() - cpu0
    out["heavy"] = _drive(server, lambda c: loadgen.open_loop(
        plan.heavy, c.send, c.connections
    ))
    out["t1"] = time.perf_counter()
    if switched:
        del out["before"]
    else:
        out["after"] = counters(server.metrics())
    out["light_rounds"] = light
    out["light"] = _merged(light)
    phases = [*warm, out["light"], out["heavy"]]
    if closed:
        out["closed"] = _merged(closed_rounds)
        phases.append(out["closed"])
    out["results"] = [r for p in phases for r in p.results]
    # What the last server was sent, in order, from its warm-up on.
    since = min(r.sent for r in warm[-1].results)
    out["last_server"] = sorted(
        (r for r in out["results"] if r.sent >= since), key=lambda r: r.sent
    )
    return out


async def run_probes(server: Server, plan: Plan) -> Dict[str, Any]:
    """One class at a time: counter deltas and span windows."""
    out: Dict[str, Any] = {"results": [], "windows": {}, "deltas": {}}
    async with Client(server.port) as client:
        for cls, requests in plan.probes.items():
            before = counters(server.metrics())
            t0 = time.perf_counter()
            phase = await client.run_list(requests)
            out["windows"][cls] = (t0, time.perf_counter())
            out["deltas"][cls] = delta(counters(server.metrics()), before)
            out["results"] += phase.results
    return out


# -- the fleet leg -------------------------------------------------------------


async def _send_timed(conn: loadgen.Connection,
                      request: corpus_mod.Request) -> loadgen.Result:
    sent = time.perf_counter()
    status, body = await conn.request("POST", request.path, request.body)
    return loadgen.Result(request, status, body, sent, sent,
                          time.perf_counter())


async def _fleet_traffic(fleet: Server, plan: Plan) -> Dict[str, Any]:
    from repro.cluster.hashring import rendezvous_rank, shard_key

    ports = fleet.worker_ports()
    router = await loadgen.Connection(HOST, fleet.port).open()
    direct = {
        name: await loadgen.Connection(HOST, port).open()
        for name, port in ports.items()
    }
    hot = plan.probes["hot"]
    owners = [
        direct[rendezvous_rank(shard_key(r.path, r.body), sorted(ports))[0]]
        for r in hot
    ]
    out: Dict[str, Any] = {"results": [], "routed_s": [], "direct_s": []}
    try:
        for requests in plan.probes.values():
            for request in requests:
                out["results"].append(await _send_timed(router, request))
        for request, owner in zip(hot, owners):  # warms the owners' caches
            out["results"].append(await _send_timed(owner, request))
        for request, owner in zip(hot, owners):
            routed = await _send_timed(router, request)
            straight = await _send_timed(owner, request)
            out["results"] += [routed, straight]
            out["routed_s"].append(routed.done - routed.sent)
            out["direct_s"].append(straight.done - straight.sent)
    finally:
        for conn in [router, *direct.values()]:
            await conn.close()
    return out


def run_fleet(fleet: Server, plan: Plan) -> Dict[str, Any]:
    """The fleet leg, one request at a time: every class probe through
    the router, then each hot probe request through the router and
    straight to the worker that owns it, alternating, so a drift of
    the host hits both sides alike.  Returns the responses, the hot
    latencies each way and the router's merged ``/metrics``."""
    out = asyncio.run(_fleet_traffic(fleet, plan))
    out["metrics"] = fleet.metrics()
    return out


def fleet_counters(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Router outcomes from a fleet's merged ``/metrics``, and the
    serve counters summed over its workers."""
    per_worker: Dict[str, float] = {}
    retries = upstream_errors = 0.0
    routed = snapshot["router"].get("repro_cluster_requests_total", {})
    for labels, count in routed.items():
        fields = dict(part.split("=", 1) for part in labels.split(","))
        worker, outcome = fields.get("worker"), fields.get("outcome")
        if outcome == "retried":
            retries += count  # the attempt that failed; not served
        elif worker == "none":
            upstream_errors += count  # no worker answered: a 503
        elif worker != "router":
            per_worker[worker] = per_worker.get(worker, 0.0) + count
    summed: Dict[str, float] = {}
    for section in snapshot["workers"].values():
        for name, value in counters(section).items():
            summed[name] = summed.get(name, 0.0) + value
    total = sum(per_worker.values())
    return {
        "per_worker": per_worker,
        "share_max": max(per_worker.values()) / total if total else 0.0,
        "retries": retries,
        "upstream_errors": upstream_errors,
        "workers": summed,
    }


# -- output checks -------------------------------------------------------------


async def _oracle_answers(keys: Sequence[Tuple[str, bytes]]
                          ) -> Dict[Tuple[str, bytes], Tuple[int, str]]:
    from repro.service.app import ModelService, ServiceConfig

    service = ModelService(ServiceConfig(tensor_dir=None, profile=False))
    answers = {}
    try:
        chunk = 48  # below max_inflight + queue_depth: nothing is shed
        for i in range(0, len(keys), chunk):
            part = keys[i:i + chunk]
            replies = await asyncio.gather(
                *(service.handle("POST", path, body) for path, body in part)
            )
            for key, (status, payload) in zip(part, replies):
                answers[key] = (status, json.dumps(payload, sort_keys=True))
    finally:
        service.close()
    return answers


def oracle(keys: Sequence[Tuple[str, bytes]]):
    """Live in-process answers (no tensor store) for ``keys``."""
    return asyncio.run(_oracle_answers(list(keys)))


def compare(body: bytes, expected: str) -> Optional[str]:
    """None when ``body`` carries the oracle's numbers, else why not.

    Exact answers must match to the last bit; an interpolated speedup
    (the response says so in its ``interpolation`` block) may differ by
    the store's documented relative error bound.
    """
    from repro.perf.tensorstore import REL_ERROR_BOUND

    got = json.loads(body)
    want = json.loads(expected)
    interp = got.pop("interpolation", None)
    if interp is not None:
        if interp.get("rel_error_bound") != REL_ERROR_BOUND:
            return "interpolation bound differs from REL_ERROR_BOUND"
        g = got.get("point", {}).pop("speedup", None)
        w = want.get("point", {}).pop("speedup", None)
        if g is None or w is None or abs(g - w) > REL_ERROR_BOUND * abs(w):
            return f"interpolated speedup {g} vs live {w}"
    if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):
        return "payload differs from the live oracle"
    return None


def check(results: Sequence[loadgen.Result]) -> Tuple[List[str], int, int]:
    """``(problems, failed, interpolated)`` over every response."""
    keys = sorted({(r.item.path, r.item.body) for r in results})
    answers = oracle(keys)
    problems: List[str] = []
    failed = interpolated = 0
    for r in results:
        status, expected = answers[(r.item.path, r.item.body)]
        why = None
        if r.status != 200:
            why = f"status {r.status}"
        elif status != 200:
            why = f"oracle status {status}"
        else:
            why = compare(r.body, expected)
            interpolated += b'"interpolation"' in r.body
        if why is not None:
            failed += 1
            if len(problems) < 5:
                problems.append(
                    f"{r.item.cls} {r.item.path} {r.item.body[:80]!r}: {why}"
                )
    return problems, failed, interpolated


def same_answers(fleet: Sequence[loadgen.Result],
                 single: Sequence[loadgen.Result]) -> Tuple[List[str], int]:
    """``(problems, failed)``: fleet responses whose payload differs
    from the single server's answer to the same request (statuses are
    left to :func:`check`)."""
    answers = {
        (r.item.path, r.item.body): r.body for r in single if r.status == 200
    }
    problems: List[str] = []
    failed = 0
    for r in fleet:
        want = answers.get((r.item.path, r.item.body))
        if want is None or r.status != 200:
            continue
        if json.loads(r.body) != json.loads(want):
            failed += 1
            if len(problems) < 5:
                problems.append(
                    f"fleet {r.item.cls} {r.item.path} {r.item.body[:80]!r}"
                    f": differs from the single server's answer"
                )
    return problems, failed


# -- per-layer numbers from the traced server ----------------------------------


def load_spans(directory: str) -> List[List[List[Any]]]:
    """One span list per traced process."""
    return [
        spans.load(os.path.join(directory, name))
        for name in sorted(os.listdir(directory))
        if name.startswith("spans-")
    ]


def span_layers(per_process: List[List[List[Any]]],
                timed: Tuple[float, float],
                probes: Dict[str, Tuple[float, float]]) -> Dict[str, float]:
    """Per-layer numbers from the traced server's spans.

    Counts and means cover the timed phases (``timed``); the hot-class
    replay share comes from the hot probe's window.  Self time is only
    reported for a span that does work rather than wait: a request's
    slow path.
    """
    table: Dict[str, Dict[str, float]] = {}

    def window(recorded, lo, hi):
        # Whole call trees: a root starting in the window, with its
        # descendants, keeps self time consistent.
        keep = set()
        for i, s in enumerate(recorded):
            parent = s[3]
            if (parent < 0 and lo <= s[1] <= hi) or parent in keep:
                keep.add(i)
        index = {old: new for new, old in enumerate(sorted(keep))}
        return [
            [s[0], s[1], s[2], index.get(s[3], -1)]
            for i, s in enumerate(recorded) if i in keep
        ]

    for recorded in per_process:
        for name, row in spans.aggregate(window(recorded, *timed)).items():
            mine = table.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            for k in mine:
                mine[k] += row[k]

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0)

    def mean_us(name: str, part: str = "total_s") -> float:
        row = table.get(name)
        return row[part] / row["calls"] * 1e6 if row else 0.0

    def in_window(name: str, lo: float, hi: float) -> int:
        return sum(
            1 for recorded in per_process for s in recorded
            if s[0] == name and lo <= s[1] <= hi
        )

    hot = probes["hot"]
    return {
        "service.fastpath.replays": (
            calls("service.fastpath.served") - calls("service.fastpath.built")
        ),
        "service.fastpath.builds": calls("service.fastpath.build"),
        "perf.tensor.lookup_us": mean_us("perf.tensor.lookup"),
        "service.respcache.get_us": mean_us("service.respcache.get"),
        "service.parse_us": mean_us("service.parse"),
        "service.batch.wait_us": mean_us("service.batch.wait"),
        "perf.batch.kernel_us": mean_us("perf.batch.kernel"),
        "class.hot.replay_share": (
            in_window("service.fastpath.served", *hot)
            - in_window("service.fastpath.built", *hot)
        ) / PROBE_REQUESTS,
        "service.request.self_us": mean_us("service.request", "self_s"),
    }
