"""The campaign phase: one durable campaign, cold then resumed.

The campaign runs in a worker process of its own, away from the load
generator's heap::

    python perfbench/campaign_phase.py --seed N

Each line on its standard input, ``{"store": DIR, "check": bool,
"spans": PATH or null}``, runs one cycle: a fresh
:class:`~repro.campaign.store.ResultStore`, cleared model caches (a CLI
user pays them on every run), the seeded spec on the serial executor,
then :data:`RESUMES` resumed runs that read every result back from the
store.  The cycle checks its own outputs and answers with one JSON line
of timings, digests and problems (and, when traced, the per-layer
numbers of the cycle).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro.campaign.runner import CampaignRunner, execute_task  # noqa: E402
from repro.campaign.spec import FigureTask, canonical_json  # noqa: E402
from repro.campaign.store import ResultStore  # noqa: E402
from repro.obs.prof import strip_line  # noqa: E402
from repro.obs.profiling import (  # noqa: E402
    phase_totals, reset_phase_totals,
)
from repro.perf.cache import clear_caches  # noqa: E402

from perfbench import corpus, spans  # noqa: E402

#: Phase-timer names of the r-sweep kernel entry points.
KERNEL_PHASES = (
    "perf.optimize_batch", "perf.optimize_prefix_batch", "perf.sweep_batch"
)
KERNEL_MODULE = "repro.perf.batch:"
SPAN_ID_FRAME = "repro.obs.context:new_span_id"


def store_bytes(store: ResultStore) -> int:
    total = 0
    for dirpath, _, files in os.walk(store.directory):
        total += sum(
            os.path.getsize(os.path.join(dirpath, f)) for f in files
        )
    return total


#: Resumed runs per cycle: a resume takes tens of milliseconds, so
#: several of them give a steadier median.
RESUMES = 5


def run_cycle(spec, store: ResultStore) -> Dict[str, Any]:
    """Cold run, then :data:`RESUMES` resumed runs over ``store``."""
    runner = CampaignRunner(store=store, executor="serial")
    start = time.perf_counter()
    cold = runner.run(spec)
    cold_s = time.perf_counter() - start
    profile = runner.last_profile
    phases = phase_totals()
    put_stats = store.stats()
    resumes, resume_s = [], []
    for _ in range(RESUMES):
        clear_caches()
        start = time.perf_counter()
        resumes.append(runner.run(spec))
        resume_s.append(time.perf_counter() - start)
    return {
        "cold_s": cold_s,
        "resume_s": resume_s,
        "cold": cold,
        "resumes": resumes,
        "profile": profile,
        "phases": phases,
        "stats": store.stats(),
        "put_stats": put_stats,
        "bytes": store_bytes(store),
    }


def campaign_seconds(cycles: List[Dict[str, Any]]) -> float:
    """Wall time of one cold campaign, from per-task medians.

    Each task's time is its median over the cycles, and the runner's
    own time (the wall time no task covers) is the median of that
    remainder.  The host's speed drifts over seconds, so a slow spell
    that hits part of one cycle is discarded task by task.
    """
    tasks = sum(
        statistics.median(times)
        for times in zip(*(c["task_s"] for c in cycles))
    )
    rest = statistics.median(c["cold_s"] - sum(c["task_s"]) for c in cycles)
    return tasks + rest


def digest(report) -> str:
    return hashlib.sha256(report.results_json().encode()).hexdigest()


# -- output checks -------------------------------------------------------------


def check(cycle: Dict[str, Any], oracles: bool) -> List[str]:
    """Every mismatch in one cycle's outputs, as messages.

    With ``oracles``, also each figure panel against its scalar oracle
    and each scenario's halving front against its exhaustive front.
    """
    problems: List[str] = []
    cold = cycle["cold"]
    if not cold.ok or cold.executed != len(cold.outcomes):
        problems.append("cold run failed or was answered by the store")
    for resumed in cycle["resumes"]:
        if resumed.cached != len(resumed.outcomes):
            problems.append("resume re-executed tasks")
        if resumed.results_json() != cold.results_json():
            problems.append("resumed results differ from the cold run")
    if oracles:
        problems += _check_figures(cold) + _check_fronts(cold)
    return problems


def _check_figures(report) -> List[str]:
    """Each figure panel equals its ``method="scalar"`` oracle."""
    problems = []
    for outcome in report.outcomes:
        task = outcome.task
        if not isinstance(task, FigureTask):
            continue
        oracle_task = FigureTask(
            figure=task.figure, workload=task.workload, f=task.f,
            scenario=task.scenario, fft_size=task.fft_size,
            method="scalar",
        )
        oracle = execute_task(oracle_task)
        got = dict(outcome.result)
        got.pop("task")
        oracle.pop("task")
        if canonical_json(got) != canonical_json(oracle):
            problems.append(
                f"figure {task.figure} f={task.f}: batch != scalar oracle"
            )
    return problems


def _check_fronts(report) -> List[str]:
    """Each scenario's halving front equals its exhaustive front."""
    fronts: Dict[str, Dict[str, Any]] = {}
    for outcome in report.outcomes:
        result = outcome.result
        if result["kind"] in ("dse-pareto", "dse-halving"):
            fronts.setdefault(result["scenario"], {})[result["kind"]] = (
                sorted(canonical_json(p) for p in result["front"])
            )
    problems = []
    for scenario, pair in sorted(fronts.items()):
        if pair.get("dse-pareto") != pair.get("dse-halving"):
            problems.append(
                f"dse {scenario}: halving front != exhaustive front"
            )
    return problems


# -- tracing -------------------------------------------------------------------


def instrument(recorder: spans.SpanRecorder) -> None:
    """Spans around each campaign layer's public entry points."""
    import repro.campaign.runner as runner_mod
    import repro.core.optimizer as optimizer
    import repro.dse.engine as dse_engine
    import repro.dse.halving as dse_halving
    import repro.obs.context as context
    import repro.perf.batch as batch
    import repro.projection.engine as engine
    import repro.projection.pareto as pareto
    import repro.projection.sensitivity as sensitivity

    recorder.instrument(runner_mod.CampaignRunner, "run", "campaign.run")
    recorder.instrument(ResultStore, "put", "campaign.store.put")
    recorder.instrument(ResultStore, "get", "campaign.store.get")
    recorder.instrument(engine, "project", "projection.figure")
    recorder.instrument(pareto, "design_space_points", "projection.pareto")
    recorder.instrument(pareto, "pareto_frontier", "projection.pareto")
    recorder.instrument(
        sensitivity, "run_sensitivity", "projection.sensitivity"
    )
    recorder.instrument(dse_engine, "execute_pareto_task", "dse.exhaustive")
    recorder.instrument(dse_halving, "execute_halving_task", "dse.halving")
    recorder.instrument(optimizer, "optimize", "core.optimize")
    for name in ("optimize_batch", "optimize_prefix_batch",
                 "sweep_designs_batch"):
        recorder.instrument(batch, name, "perf.batch")
    recorder.instrument(context, "new_span_id", "obs.new_span_id")


def sampled_shares(profile) -> Dict[str, float]:
    """Sampled share of the kernel module (inclusive) and of
    ``new_span_id`` (self) in one folded profile."""
    total = sum(profile.counts.values())
    kernel = span_id = 0
    for stack, count in profile.counts.items():
        frames = [strip_line(f) for f in stack]
        if any(f.startswith(KERNEL_MODULE) for f in frames):
            kernel += count
        if frames and frames[-1] == SPAN_ID_FRAME:
            span_id += count
    if not total:
        return {"kernel": 0.0, "span_id": 0.0, "samples": 0}
    return {"kernel": kernel / total, "span_id": span_id / total,
            "samples": total}


def union_time(recorded: List[List[Any]], name: str,
               lo: float, hi: float) -> float:
    """Wall time inside [lo, hi] covered by spans called ``name``."""
    return spans.covered(
        (lo, hi), [(s[1], s[2]) for s in recorded if s[0] == name]
    )


def layer_metrics(cycle: Dict[str, Any],
                  recorder: spans.SpanRecorder) -> Dict[str, float]:
    """Per-layer numbers of one traced cycle."""
    recorded = recorder.finished()
    table = spans.aggregate(recorded)
    layers = spans.layer_self(table)

    def busy(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def phase(name: str, field: str) -> float:
        return cycle["phases"].get(name, {}).get(field, 0)

    full = configs = 0
    for outcome in cycle["cold"].outcomes:
        if outcome.result["kind"] == "dse-halving":
            full += outcome.result["full_evaluations"]
            configs += outcome.result["n_configs"]
    # Sampler against spans over the cold run's window (the first
    # campaign.run span; the resumes follow it).
    run = next(s for s in recorded if s[0] == "campaign.run")
    wall = run[2] - run[1]
    shares = sampled_shares(cycle["profile"])
    kernel_spans = union_time(recorded, "perf.batch", run[1], run[2]) / wall
    ids_spans = union_time(recorded, "obs.new_span_id", run[1], run[2]) / wall
    stats, put_stats = cycle["stats"], cycle["put_stats"]
    return {
        "projection.figure_s": busy("projection.figure"),
        "projection.pareto_s": busy("projection.pareto"),
        "projection.sensitivity_s": busy("projection.sensitivity"),
        "dse.exhaustive_s": busy("dse.exhaustive"),
        "dse.halving_s": busy("dse.halving"),
        "dse.full_eval_fraction": full / configs if configs else 0.0,
        "perf.batch.calls": sum(phase(p, "calls") for p in KERNEL_PHASES),
        "perf.batch_s": sum(phase(p, "total_s") for p in KERNEL_PHASES),
        "core.optimize.calls": phase("core.optimize", "calls"),
        "core.optimize_s": phase("core.optimize", "total_s"),
        "campaign.serialize_s": phase("campaign.store.serialize", "total_s"),
        "campaign.store.put_s": busy("campaign.store.put"),
        "campaign.store.bytes": cycle["bytes"],
        "campaign.store.get_s": busy("campaign.store.get") / RESUMES,
        "campaign.store.writes": put_stats.writes,
        "campaign.store.hits": (stats.hits - put_stats.hits) / RESUMES,
        "campaign.store.corrupt": stats.corrupt,
        "obs.prof.samples": shares["samples"],
        "obs.prof.kernel_share_sampled": shares["kernel"],
        "obs.prof.kernel_share_spans": kernel_spans,
        "obs.prof.span_id_share_sampled": shares["span_id"],
        "obs.prof.span_id_share_spans": ids_spans,
        "obs.prof.share_error_pts": 100 * max(
            abs(shares["kernel"] - kernel_spans),
            abs(shares["span_id"] - ids_spans),
        ),
        "self.campaign_s": layers.get("campaign", 0.0),
        "self.projection_s": layers.get("projection", 0.0),
        "self.dse_s": layers.get("dse", 0.0),
        "self.core_s": layers.get("core", 0.0),
        "self.perf_s": layers.get("perf", 0.0),
        "self.obs_s": layers.get("obs", 0.0),
    }


def serve_cycle(seed: int, store: str, check_oracles: bool,
                spans_path: Optional[str]) -> Dict[str, Any]:
    """Set up and run one cycle; its JSON-ready summary."""
    gc.collect()
    start = time.perf_counter()
    spec = corpus.campaign_spec(seed)
    spec.tasks()
    result_store = ResultStore(store)
    clear_caches()
    reset_phase_totals()
    setup_s = time.perf_counter() - start
    recorder = spans.SpanRecorder() if spans_path else None
    if recorder is not None:
        instrument(recorder)
    try:
        cycle = run_cycle(spec, result_store)
    finally:
        if recorder is not None:
            recorder.restore()
    out = {
        "setup_s": setup_s,
        "cold_s": cycle["cold_s"],
        "resume_s": cycle["resume_s"],
        "task_s": [o.duration_ms / 1e3 for o in cycle["cold"].outcomes],
        "tasks": len(cycle["cold"].outcomes),
        "digest": digest(cycle["cold"]),
        "problems": check(cycle, check_oracles),
    }
    if recorder is not None:
        recorder.dump(spans_path)
        out["layer"] = layer_metrics(cycle, recorder)
        out["profile_top"] = cycle["profile"].top_self(5)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(serve_cycle(
            args.seed, request["store"], request["check"], request["spans"]
        )), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
