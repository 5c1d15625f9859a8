"""Wall-clock benchmark: scalar vs batched vs parallel campaigns.

Times the full Figure 6-9 projection campaign (14 panels: every
(workload, f, scenario) cell behind the paper's headline figures)
through each execution mode:

* ``scalar_serial`` -- the seed-faithful baseline: per-cell budget
  derivation with no memoization and the pure-Python r-sweep.
* ``batch_serial`` -- memoized budgets + the NumPy-vectorized sweep
  (:func:`repro.perf.batch.optimize_batch`), in-process.
* ``batch_parallel`` / ``scalar_parallel`` -- the same methods fanned
  across a :class:`repro.perf.grid.ProjectionGrid` process pool
  (including pool spawn, so the number is an honest cold-start cost).

A second phase times the Monte-Carlo sensitivity study (Section 6.3)
-- the same six (workload, node) tasks a benchmark campaign runs --
through the per-trial reference loop kept with the tests
(``tests/sensitivity_reference.py``: one single-budget kernel call per
trial per design) and through the batched
:func:`repro.projection.sensitivity.run_sensitivity` (one call per
design, per-trial (mu, phi) rows).  Their ``payload()`` outputs must
be byte-equal, and the batched path must be at least
``REQUIRED_SENSITIVITY_SPEEDUP`` times faster.

Results land in ``BENCH_projection.json`` at the repo root, plus one
envelope-stamped history row appended to ``BENCH_history.jsonl``
(benchmark ``projection``) for the regression sentinel
(``repro-hetsim bench-check``).  The
optimized path must beat the scalar baseline by at least
``REQUIRED_SPEEDUP``; at this campaign size the vectorized serial path
is usually the fastest configuration (each panel costs ~0.5 ms, below
process-pool dispatch overhead), while the pool pays off as per-panel
cost grows -- the scalar_parallel row quantifies exactly that.

Run as a script (``python benchmarks/bench_perf_grid.py``) or through
pytest (``pytest benchmarks/bench_perf_grid.py``).  Caches are cleared
before every repetition, so no mode inherits another's warm state.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from repro._version import __version__
from repro.obs.history import DEFAULT_HISTORY_NAME, record_benchmark
from repro.obs.profiling import phase_totals, reset_phase_totals
from repro.perf.cache import clear_caches
from repro.perf.grid import ProjectionGrid, figure_campaign
from repro.projection.sensitivity import SensitivityConfig, run_sensitivity

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "tests") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tests"))
from sensitivity_reference import reference_sensitivity  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "BENCH_projection.json"
HISTORY_PATH = REPO_ROOT / DEFAULT_HISTORY_NAME
BENCHMARK_NAME = "projection"
FIGURES = ("F6", "F7", "F8", "F9")
REQUIRED_SPEEDUP = 5.0
REPEATS = 5
#: The benchmark campaign's sensitivity tasks: every workload at two
#: nodes, f = 0.99, 200 trials, one seed per task.
SENSITIVITY_TASKS = tuple(
    (workload, node, seed)
    for seed, (workload, node) in enumerate(
        ((w, n) for w in ("mmm", "fft", "bs") for n in (22, 11)), start=1
    )
)
SENSITIVITY_TRIALS = 200
REQUIRED_SENSITIVITY_SPEEDUP = 3.0


def _time_mode(
    executor: str,
    method: str,
    jobs: Optional[int] = None,
    repeats: int = REPEATS,
) -> dict:
    """Best-of-N wall-clock for one campaign configuration."""
    grid = ProjectionGrid(jobs=jobs, executor=executor, method=method)
    tasks = figure_campaign(FIGURES)
    times = []
    phases: dict = {}
    for _ in range(repeats):
        clear_caches()
        reset_phase_totals()
        start = time.perf_counter()
        results = grid.run(tasks)
        elapsed = time.perf_counter() - start
        if not times or elapsed < min(times):
            # Phase breakdown of the best repetition (what best_s
            # reports).  Serial modes attribute nearly all of best_s
            # to the instrumented phases; process modes only see the
            # parent's share (workers profile in their own process).
            phases = phase_totals()
        times.append(elapsed)
    assert len(results) == len(tasks)
    return {
        "executor": executor,
        "method": method,
        "jobs": grid.jobs if executor == "process" else 1,
        "best_s": min(times),
        "mean_s": sum(times) / len(times),
        "times_s": times,
        "phases": phases,
    }


def _time_sensitivity(study, repeats: int = REPEATS):
    """Best-of-N wall-clock for every sensitivity task through
    ``study``; returns ``(best_s, payload bytes per task)``."""
    times = []
    for _ in range(repeats):
        clear_caches()
        start = time.perf_counter()
        summaries = [
            study(
                workload, 0.99, node,
                config=SensitivityConfig(
                    trials=SENSITIVITY_TRIALS, seed=seed
                ),
            )
            for workload, node, seed in SENSITIVITY_TASKS
        ]
        times.append(time.perf_counter() - start)
    outputs = [
        json.dumps(summary.payload(), sort_keys=True)
        for summary in summaries
    ]
    return min(times), outputs


def run_sensitivity_phase() -> dict:
    """Reference per-trial loop vs the batched study."""
    reference_s, reference_out = _time_sensitivity(reference_sensitivity)
    batched_s, batched_out = _time_sensitivity(run_sensitivity)
    if batched_out != reference_out:
        raise AssertionError(
            "batched sensitivity payloads differ from the reference loop"
        )
    return {
        "tasks": len(SENSITIVITY_TASKS),
        "trials": SENSITIVITY_TRIALS,
        "reference_best_s": reference_s,
        "batched_best_s": batched_s,
        "speedup": reference_s / batched_s,
        "required_speedup": REQUIRED_SENSITIVITY_SPEEDUP,
    }


def run_benchmark(jobs: Optional[int] = None) -> dict:
    """Time every mode and assemble the BENCH_projection payload."""
    panels = len(figure_campaign(FIGURES))
    modes = {
        "scalar_serial": _time_mode("serial", "scalar"),
        "batch_serial": _time_mode("serial", "batch"),
        "batch_parallel": _time_mode("process", "batch", jobs=jobs),
        "scalar_parallel": _time_mode("process", "scalar", jobs=jobs),
    }
    baseline = modes["scalar_serial"]["best_s"]
    speedups = {
        name: baseline / mode["best_s"]
        for name, mode in modes.items()
        if name != "scalar_serial"
    }
    best_mode = max(speedups, key=speedups.get)
    return {
        "schema_version": 2,
        "model_version": __version__,
        "benchmark": "figure 6-9 projection campaign",
        "figures": list(FIGURES),
        "panels": panels,
        "repeats": REPEATS,
        "modes": modes,
        "speedup_vs_scalar": speedups,
        "best_mode": best_mode,
        "best_speedup": speedups[best_mode],
        "required_speedup": REQUIRED_SPEEDUP,
        "sensitivity": run_sensitivity_phase(),
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "regenerate": "python benchmarks/bench_perf_grid.py",
    }


def _record(payload: dict) -> None:
    """Write the snapshot and its joinable history row (one envelope)."""
    record_benchmark(
        payload, benchmark=BENCHMARK_NAME, snapshot_path=OUTPUT_PATH,
        history_path=HISTORY_PATH, timestamp=time.time(),
    )


def _failures(payload: dict) -> list:
    """Every gate the payload misses, as messages."""
    failures = []
    if payload["best_speedup"] < REQUIRED_SPEEDUP:
        failures.append(
            f"best mode {payload['best_mode']} is only "
            f"{payload['best_speedup']:.2f}x over scalar "
            f"(required: {REQUIRED_SPEEDUP}x)"
        )
    sens = payload["sensitivity"]
    if sens["speedup"] < REQUIRED_SENSITIVITY_SPEEDUP:
        failures.append(
            f"batched sensitivity is only {sens['speedup']:.2f}x over "
            f"the per-trial loop (required: "
            f"{REQUIRED_SENSITIVITY_SPEEDUP}x)"
        )
    return failures


def test_batched_campaign_speedup():
    """The optimized path must beat the seed scalar path by >= 5x, and
    the batched sensitivity study the per-trial loop by >= 3x."""
    payload = run_benchmark()
    _record(payload)
    assert not _failures(payload), _failures(payload)


def main() -> int:
    payload = run_benchmark()
    _record(payload)
    base = payload["modes"]["scalar_serial"]["best_s"]
    print(f"campaign: {payload['panels']} panels, best of {REPEATS}")
    print(f"  scalar_serial : {base * 1000:8.1f} ms  (baseline)")
    for name in ("batch_serial", "batch_parallel", "scalar_parallel"):
        mode = payload["modes"][name]
        print(
            f"  {name:<14}: {mode['best_s'] * 1000:8.1f} ms  "
            f"({payload['speedup_vs_scalar'][name]:.2f}x)"
        )
    sens = payload["sensitivity"]
    print(
        f"sensitivity: {sens['tasks']} tasks x {sens['trials']} trials, "
        f"best of {REPEATS}"
    )
    print(f"  reference     : {sens['reference_best_s'] * 1000:8.1f} ms")
    print(
        f"  batched       : {sens['batched_best_s'] * 1000:8.1f} ms  "
        f"({sens['speedup']:.2f}x, outputs equal)"
    )
    print(f"wrote {OUTPUT_PATH}")
    failures = _failures(payload)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"PASS: {payload['best_mode']} is "
        f"{payload['best_speedup']:.2f}x over the scalar baseline; "
        f"batched sensitivity is {sens['speedup']:.2f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
