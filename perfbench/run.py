"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Workloads:

* ``serve`` -- campaign cycles, then ``repro-hetsim serve --tensor-dir``
  under seeded hot/warm/cold traffic: the tensor store and the
  transport byte cache answer the hot class.
* ``live`` -- the same campaign cycles and traffic through plain
  ``serve``: no tensor store, so every class runs through the response
  cache, the micro-batcher and the kernel.

A run interleaves its parts, because the host's speed drifts over
seconds: a campaign cycle (cold run, then resumed runs from its result
store), a set-up (tensor store build if any, and server boot), then
rounds of traffic (light open loop, with client and server on one CPU,
and a closed-loop slice) with another cycle or set-up between rounds,
then the heavy open loop.  ``--trace 0`` measures with no benchmark
spans and prints the end-to-end metrics; ``--trace 1`` records spans
around each layer's public functions, reads the counters the program
exposes, runs the class probes through a two-worker router fleet
(``serve --workers 2``) and straight to the owning workers, and prints
the per-layer metrics with the tracing overhead (traced against
untraced passes of the same run).  Every output is checked against an
oracle; any mismatch fails the run with exit code 1.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve", "live")
#: Set-ups per run (their median is ``setup_s``).
SETUPS = 3


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end" | "per_layer": {metric name: unit}}`` as
    ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _import_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no program to measure: {ROOT / 'src' / 'repro'} is "
            f"missing; run from a checkout of the repository"
        )
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


class Run:
    """State of one invocation: its metrics, checks and server."""

    def __init__(self, args: argparse.Namespace, work: str):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.work = work
        self.log = open(os.path.join(work, "program.log"), "ab")
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Dict[str, Any]] = {}
        declared = declared_metrics()
        self.units = {**declared["end_to_end"], **declared["per_layer"]}
        #: The metrics this mode must print, by name.
        self.expected = set(
            declared["per_layer" if self.trace else "end_to_end"]
        )
        self.server_peak_mb = 0.0
        self.timings: Dict[str, float] = {}
        self.campaign_setups: List[float] = []
        self.server = None

    def say(self, text: str) -> None:
        print(text, flush=True)

    def put(self, name: str, value: float, n: Any = None) -> None:
        """A metric of this run's JSON result, printed with its count;
        its unit is the one ``BENCHMARK.json`` declares."""
        self.metrics[name] = {"value": value, "unit": self.units[name]}
        self.note(name, value, n)

    def note(self, name: str, value: float, n: Any = None) -> None:
        """Print one declared figure, marked when it is not in the JSON
        result (a per-layer figure printed by the untraced run)."""
        count = f"  (n={n})" if n is not None else ""
        mark = "" if name in self.metrics else "  [printed only]"
        unit = self.units[name]
        self.say(f"  {name:34s} {value:14.6g} {unit}{count}{mark}")

    @contextlib.contextmanager
    def timed(self, what: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[what] = (
                self.timings.get(what, 0.0) + time.perf_counter() - start
            )

    def stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


# -- campaign phase ------------------------------------------------------------


class Campaign:
    """The campaign phase, as cycles spread over the whole run.

    The cycles run in a worker process (``campaign_phase.py``), away
    from the load generator's heap.  The host's speed drifts over
    seconds, so the cycles are interleaved with the serving set-ups
    and traffic rounds instead of running back to back: a slow spell
    then hits one cycle, and the medians discard it.  A traced run
    alternates untraced and traced cycles, so the tracing overhead
    compares neighbours.
    """

    def __init__(self, run: Run):
        self.run = run
        self.cycles: List[Dict[str, Any]] = []
        self.traced: List[Dict[str, Any]] = []
        self.worker = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "campaign_phase.py"),
             "--seed", str(run.seed)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=run.log,
        )

    def cycle(self) -> None:
        run = self.run
        index = len(self.cycles) + len(self.traced)
        tracing = run.trace and index % 2 == 1
        request = {
            "store": os.path.join(run.work, f"store-{index}"),
            "check": index == 0,
            "spans": os.path.join(
                ROOT, ".perfbench-work", "traces",
                f"{run.workload}-{run.seed}-campaign-{index}.jsonl",
            ) if tracing else None,
        }
        with run.timed("campaign"):
            self.worker.stdin.write((json.dumps(request) + "\n").encode())
            self.worker.stdin.flush()
            answer = self.worker.stdout.readline()
        if not answer:
            raise RuntimeError(
                f"campaign worker exited with {self.worker.wait()}"
            )
        shutil.rmtree(request["store"], ignore_errors=True)
        cycle = json.loads(answer)
        (self.traced if tracing else self.cycles).append(cycle)
        run.campaign_setups.append(cycle["setup_s"])

    def close(self) -> None:
        if self.worker.poll() is None:
            self.worker.stdin.close()
            try:
                self.worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.worker.kill()
                self.worker.wait()

    def report(self) -> None:
        from perfbench import campaign_phase, stats

        run, cycles, traced = self.run, self.cycles, self.traced
        everything = cycles + traced
        problems = [p for c in everything for p in c["problems"]]
        digests = {c["digest"] for c in everything}
        if len(digests) != 1:
            problems.append(
                f"results digest differs between cycles: {sorted(digests)}"
            )
        for cycle in everything:
            run.attempted += (1 + len(cycle["resume_s"])) * cycle["tasks"]
        run.failed += len(problems)
        run.problems += problems
        cold = [c["cold_s"] for c in cycles]
        resume = [t for c in cycles for t in c["resume_s"]]
        run.say(
            f"campaign: {cycles[0]['tasks']} tasks, results digest "
            f"{cycles[0]['digest'][:16]}, identical over {len(everything)} "
            f"cold runs: {len(digests) == 1}; cold runs {_fmt(cold)} s"
        )
        # A resume lasts tens of milliseconds, so each cycle's resumes
        # see one state of the host: resume_s spread 30-50% over seeds,
        # wider than any bound, and is printed but not bounded.
        show = run.put if run.trace else run.note
        show("resume_s", stats.median(resume), len(resume))
        if not run.trace:
            run.put("campaign_s", campaign_phase.campaign_seconds(cycles),
                    len(cold))
            return
        overhead = (
            stats.median([c["cold_s"] for c in traced]) / stats.median(cold)
            - 1
        ) * 100
        run.say(f"  spans written to .perfbench-work/traces/; sampled top "
                f"frames: {json.dumps(traced[0]['profile_top'])}")
        for name in traced[0]["layer"]:
            value = statistics.fmean(c["layer"][name] for c in traced)
            run.put(name, value)
        run.put("trace.campaign_overhead_pct", overhead,
                f"{len(traced)} traced vs {len(cycles)} untraced")


# -- serving phase -------------------------------------------------------------


def serving(run: Run, between: Callable[[], None]) -> None:
    """The serving phase; ``between()`` runs a campaign cycle at points
    where no traffic is in flight."""
    from perfbench import serving as srv, stats

    plan = srv.Plan(run.workload, run.seed, run.seconds)
    run.say(f"traffic: seed {run.seed}, corpus digest {plan.digest[:16]}")
    log = os.path.join(run.work, "program.log")
    setups = []

    def set_up() -> "srv.Server":
        with run.timed("serving set-up"):
            run.stop_server()
            t0 = time.perf_counter()
            tensor_dir = None
            if run.workload == "serve":
                tensor_dir = os.path.join(run.work, f"tensors-{len(setups)}")
                srv.build_tensors(tensor_dir, run.log)
            run.server = srv.Server(tensor_dir, log)
            run.server.start()
            setups.append(time.perf_counter() - t0)
        return run.server

    def peak() -> None:
        run.server_peak_mb = max(run.server_peak_mb, run.server.peak_rss_mb())

    set_up()
    tensor_dir = run.server.tensor_dir
    # What the campaign left behind is garbage or frozen from here on:
    # no collector pauses scanning it while the load generator runs.
    gc.collect()
    gc.freeze()
    if run.trace:
        # Untraced then traced servers under the same arrivals: the
        # difference is the tracing overhead.
        between()
        untraced = srv.run_phases(run.server, plan, closed=False)
        run.stop_server()
        between()
        spans_dir = os.path.join(run.work, "spans")
        run.server = srv.Server(tensor_dir, log, spans_dir=spans_dir)
        run.server.start()
        phases = srv.run_phases(run.server, plan)
        probes = asyncio.run(srv.run_probes(run.server, plan))
        results = (phases["results"] + untraced["results"]
                   + probes["results"])
    else:
        # Between the light rounds: the other set-ups and the campaign
        # cycles, so that every part of the run meets the host's slow
        # spells and fast ones alike.
        steps = [between, set_up] * (SETUPS - 1)
        steps += [between] * (srv.ROUNDS - 1 - len(steps))

        def next_step():
            step = steps.pop(0)
            if step is set_up:
                peak()
                return set_up()
            step()
            return None

        phases = srv.run_phases(run.server, plan, between=next_step)
        results = phases["results"]
    peak()
    run.stop_server()
    report_shape(run, plan, phases["last_server"])
    if run.trace:
        fleet = srv.Server(tensor_dir, log, workers=srv.FLEET_WORKERS)
        run.server = fleet
        fleet.start()
        leg = srv.run_fleet(fleet, plan)
        run.stop_server()
        results += leg["results"]
        between()
    with run.timed("serving checks"):
        problems, failed, interpolated = srv.check(results)
        if run.trace:
            more, unequal = srv.same_answers(leg["results"],
                                             probes["results"])
            problems, failed = problems + more, failed + unequal
    run.attempted += len(results)
    run.failed += failed
    run.problems += problems
    run.say(f"serving: {len(results)} responses checked against the live "
            f"oracle, {interpolated} interpolated, {failed} mismatched")
    if not run.trace:
        campaign_setup = stats.median(run.campaign_setups)
        run.put("setup_s", campaign_setup + stats.median(setups),
                len(setups))
        run.say(f"    serving set-ups {_fmt(setups)} s, campaign set-up "
                f"{campaign_setup:.4f} s (median of "
                f"{len(run.campaign_setups)})")
        light_latency(run, phases, bounded=True)
        heavy_latency(run, phases)
        closed = phases["closed"]
        run.put("saturation_rps", len(closed.results) / closed.elapsed_s,
                len(closed.results))
        generator_report(run, phases)
        return
    per_layer_serving(run, phases, probes, spans_dir)
    per_layer_fleet(run, leg)
    run.say("  untraced pass of this run (tails are unbounded metrics):")
    light_latency(run, untraced, bounded=False)
    heavy_latency(run, untraced)
    overhead = (
        _mean_latency(phases["light"]) / _mean_latency(untraced["light"]) - 1
    ) * 100
    run.put("trace.serve_overhead_pct", overhead,
            len(phases["light"].results))


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def _mean_latency(phase) -> float:
    return sum(r.latency for r in phase.results) / len(phase.results)


def report_shape(run: Run, plan, sent) -> None:
    """Traffic shape of the requests ``sent`` to the measured server
    after its warm-up: class shares, unique keys against the cache
    capacities, endpoint mix, and the hit share a model of each cache
    gives the whole traffic in the order it was sent (the byte cache
    counts a negative entry for every warm and cold body, as the
    program keeps one)."""
    from perfbench import corpus

    requests = [r.item for r in sorted(sent, key=lambda r: r.sent)]
    shape = corpus.shape(requests[len(plan.warmup):])
    run.say(f"traffic shape: {shape['requests']} timed requests to the "
            f"measured server, after a warm-up of {len(plan.warmup)} (every "
            f"hot and warm key once)")
    key_sets = {
        "hot": sum(len(v) for v in plan.corpus.hot.values()),
        "warm": sum(len(v) for v in plan.corpus.warm.values()),
    }
    for cls in corpus.CLASSES:
        key_set = (f"key set {key_sets[cls]}" if cls in key_sets
                   else "never repeated")
        run.say(
            f"  {cls:4s}: {shape[cls]['share']:.1%} of requests, "
            f"{shape[cls]['unique_keys']} unique keys, {key_set} "
            f"(LRU {corpus.LRU_CAPACITY}, byte cache "
            f"{corpus.BYTE_CACHE_CAPACITY})"
        )
    run.say("  endpoints: " + ", ".join(
        f"{path} {share:.1%}" for path, share in shape["endpoints"].items()
    ))
    if run.workload == "serve":
        caches = (
            ("byte cache", corpus.BYTE_CACHE_CAPACITY, lambda r: True),
            ("response LRU", corpus.LRU_CAPACITY, lambda r: r.cls != "hot"),
        )
    else:
        caches = (("response LRU", corpus.LRU_CAPACITY, lambda r: True),)
    for name, capacity, cached in caches:
        model = corpus.cache_residency(
            requests, capacity, cached, skip=len(plan.warmup)
        )
        run.say(
            f"  {name} model ({capacity} entries): {model['keys']} keys "
            f"took an entry, {model['evictions']} evictions; resident "
            f"after the warm-up: " + ", ".join(
                f"{cls} {share:.1%}"
                for cls, share in model["resident"].items()
            )
        )


def light_latency(run: Run, phases: Dict[str, Any], bounded: bool) -> None:
    """Per-class latency at the light rate.

    The medians are end-to-end metrics: response times, from the send
    to the last byte, with client and server on one CPU (see
    ``serving.one_cpu``), each the median over the light rounds of the
    round's p50.  From the send time, not the due time: the generator's
    lateness (about 0.2 ms, a timer waking an idle CPU) and the queue
    for its two connections grow faster than the host slows down, and
    spread the due-time p50 25-30% over seeds on a 2-vCPU virtual
    machine.  The median over rounds drops a slow spell of the host
    that spans a round or two.

    The due-time p50s and the p99s (all p99s are from the due time) are
    printed, and are per-layer metrics of the traced run, so a stall
    anywhere still shows.  They carry no bound: with about a thousand
    samples per class the p99's run-to-run spread (13-100%) is wider
    than any bound BENCHMARK.json may set (25% at most).
    """
    from perfbench import stats

    for cls in ("hot", "warm", "cold"):
        ms = [r.latency * 1e3
              for r in phases["light"].results if r.item.cls == cls]
        if bounded:
            p50s = [
                stats.median([(r.done - r.sent) * 1e3
                              for r in phase.results if r.item.cls == cls])
                for phase in phases["light_rounds"]
            ]
            run.put(f"{cls}_p50_ms", stats.median(p50s), len(ms))
        show = run.note if bounded else run.put
        show(f"{cls}_due_p50_ms", stats.median(ms), len(ms))
        show(f"{cls}_p99_ms", stats.tail(ms, 99.0), len(ms))


def heavy_latency(run: Run, phases: Dict[str, Any]) -> None:
    """Latency over all classes at the heavy rate (unbounded: a few
    seconds of a queue near capacity spread 15-40% from run to run)."""
    from perfbench import stats

    ms = [r.latency * 1e3 for r in phases["heavy"].results]
    show = run.note if not run.trace else run.put
    show("loaded_p50_ms", stats.median(ms), len(ms))
    show("loaded_p99_ms", stats.tail(ms, 99.0), len(ms))


def generator_report(run: Run, phases: Dict[str, Any]) -> None:
    from perfbench import serving as srv, stats

    for name, rate in (("light", srv.LIGHT_RPS),
                       ("heavy", srv.HEAVY_RPS[run.workload])):
        phase = phases[name]
        late = [r.lateness * 1e3 for r in phase.results]
        growth = phase.backlog_growth()
        # A backlog growing by more than 2% of the offered rate per
        # second means the fixed rate exceeds what the system serves.
        growing = len(phase.backlog) >= 3 and growth > 0.02 * rate
        run.say(
            f"  generator {name} ({rate:g} req/s): lateness p50 "
            f"{stats.median(late):.3f} ms, p99 {stats.tail(late, 99.0):.3f}"
            f" ms; backlog samples {[b for _, b in phase.backlog]}, growth "
            f"{growth:+.1f}/s" + ("  ** BACKLOG GROWING **" if growing else "")
        )


def per_layer_serving(run: Run, phases, probes, spans_dir: str) -> None:
    from perfbench import serving as srv, stats

    before, after = phases["before"], phases["after"]
    d = srv.delta(after, before)
    requests = sum(
        len(phases[p].results) for p in ("light", "heavy", "closed")
    )
    lookups = d["respcache.hits"] + d["respcache.misses"]
    late = [r.lateness * 1e3
            for p in ("light", "heavy") for r in phases[p].results]
    layer = srv.span_layers(
        srv.load_spans(spans_dir), (phases["t0"], phases["t1"]),
        probes["windows"],
    )
    closed = phases["closed"]
    values = {
        "service.fastpath.replays": layer["service.fastpath.replays"],
        "service.fastpath.builds": layer["service.fastpath.builds"],
        "perf.tensor.hit": d["tensor.hit"],
        "perf.tensor.interp": d["tensor.interp"],
        "perf.tensor.fallback": d["tensor.fallback"],
        "perf.tensor.lookup_us": layer["perf.tensor.lookup_us"],
        "service.respcache.hits": d["respcache.hits"],
        "service.respcache.misses": d["respcache.misses"],
        "service.respcache.hit_ratio": (
            d["respcache.hits"] / lookups if lookups else 0.0
        ),
        "service.respcache.get_us": layer["service.respcache.get_us"],
        "service.parse_us": layer["service.parse_us"],
        "service.batch.dispatches": d["batch.dispatches"],
        "service.batch.items_per_dispatch": (
            d["batch.items"] / d["batch.dispatches"]
            if d["batch.dispatches"] else 0.0
        ),
        "service.batch.wait_us": layer["service.batch.wait_us"],
        "perf.batch.kernel_us": layer["perf.batch.kernel_us"],
        "service.admission.shed": d["shed"],
        "service.admission.timeouts": d["timeouts"],
        "service.cpu_us_per_request": (
            phases["cpu_s"] / len(closed.results) * 1e6
        ),
        "gen.late_p99_ms": stats.tail(late, 99.0),
        "gen.backlog_growth": max(
            phases["light"].backlog_growth(),
            phases["heavy"].backlog_growth(),
        ),
        "class.hot.replay_share": layer["class.hot.replay_share"],
        "class.warm.respcache_hit_share": (
            probes["deltas"]["warm"]["respcache.hits"] / srv.PROBE_REQUESTS
        ),
        "class.cold.fallback_share": (
            probes["deltas"]["cold"]["tensor.fallback"] / srv.PROBE_REQUESTS
        ),
        "class.cold.dispatches_per_request": (
            probes["deltas"]["cold"]["batch.dispatches"] / srv.PROBE_REQUESTS
        ),
        "service.request.self_us": layer["service.request.self_us"],
    }
    run.say(f"  timed requests {requests}; class probes of "
            f"{srv.PROBE_REQUESTS} requests each:")
    for cls in ("hot", "warm", "cold"):
        pd = probes["deltas"][cls]
        run.say(
            f"    {cls:4s}: respcache hits {pd['respcache.hits']:.0f}, "
            f"tensor hit+interp {pd['tensor.hit'] + pd['tensor.interp']:.0f}, "
            f"fallback {pd['tensor.fallback']:.0f}, batch dispatches "
            f"{pd['batch.dispatches']:.0f}"
        )
    for name, value in values.items():
        run.put(name, value)


def per_layer_fleet(run: Run, leg: Dict[str, Any]) -> None:
    from perfbench import serving as srv, stats

    fleet = srv.fleet_counters(leg["metrics"])
    routed, direct = leg["routed_s"], leg["direct_s"]
    run.say(
        f"  fleet of {srv.FLEET_WORKERS} workers: requests per worker "
        f"{fleet['per_worker']}; hot probe p50 {stats.median(routed) * 1e3:.3f}"
        f" ms through the router, {stats.median(direct) * 1e3:.3f} ms "
        f"straight to the owning worker"
    )
    run.put("cluster.router.hop_us",
            (stats.median(routed) - stats.median(direct)) * 1e6, len(routed))
    run.put("cluster.worker_share_max", fleet["share_max"],
            int(sum(fleet["per_worker"].values())))
    run.put("cluster.retries", fleet["retries"])
    run.put("cluster.upstream_errors", fleet["upstream_errors"])
    for name in ("respcache.hits", "respcache.misses", "batch.dispatches",
                 "tensor.hit", "tensor.interp", "tensor.fallback"):
        run.put(f"cluster.{name}", fleet["workers"][name])


# -- entry point ---------------------------------------------------------------


def peak_rss(run: Run) -> None:
    """``peak_rss_mb``: the largest peak resident memory among the
    program's processes.  That is the larger of the measured server's
    (summed over its process tree, read before it stopped) and the
    largest of every child process reaped so far: the campaign worker,
    each ``materialize build`` (with the pool processes it reaped) and
    the servers themselves."""
    children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    run.put("peak_rss_mb", max(run.server_peak_mb, children_mb))
    run.say(f"    server tree {run.server_peak_mb:.1f} MB, largest reaped "
            f"child (campaign worker, tensor builds, servers) "
            f"{children_mb:.1f} MB")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _steal_ticks() -> int:
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def _stop(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    # A terminated run still stops its servers (the finally below).
    signal.signal(signal.SIGTERM, _stop)
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base)
    # Every temporary file of this process and its children stays in
    # the checkout.
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    run = Run(args, work)
    run.say(f"perfbench: workload {run.workload}, seed {run.seed}, "
            f"{run.seconds:g} s, trace {int(run.trace)}, "
            f"{os.cpu_count()} CPUs, Python {sys.version.split()[0]}")
    started, steal0 = time.perf_counter(), _steal_ticks()
    campaign = None
    try:
        campaign = Campaign(run)
        campaign.cycle()
        serving(run, campaign.cycle)
        campaign.close()
        campaign.report()
        if not run.trace:
            peak_rss(run)
            run.put(
                "success_rate",
                1.0 - run.failed / max(1, run.attempted), run.attempted,
            )
        missing = run.expected - set(run.metrics)
        if missing or set(run.metrics) - run.expected:
            raise RuntimeError(
                f"printed metrics differ from BENCHMARK.json: missing "
                f"{sorted(missing)}, undeclared "
                f"{sorted(set(run.metrics) - run.expected)}"
            )
    finally:
        run.stop_server()
        if campaign is not None:
            campaign.close()
        run.log.close()
        shutil.rmtree(work, ignore_errors=True)
    wall = time.perf_counter() - started
    steal = (_steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    run.timings["traffic and the rest"] = wall - sum(run.timings.values())
    run.say("time: " + ", ".join(
        f"{what} {secs:.1f} s" for what, secs in run.timings.items()
    ) + f"; wall {wall:.1f} s; CPU stolen by the host {steal:.2f} s "
        f"({steal / (wall * (os.cpu_count() or 1)):.1%})")
    for problem in run.problems:
        run.say(f"MISMATCH: {problem}")
    correct = run.failed == 0 and not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
