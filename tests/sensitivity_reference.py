"""Per-trial Monte-Carlo loop: the reference for ``run_sensitivity``.

This is the sensitivity study as it ran before its trials were
batched: every trial draws the bandwidth and power multipliers, then
each heterogeneous design's (mu, phi), and re-optimises each design
with one single-budget kernel call.  The oracle tests require the
batched :func:`repro.projection.sensitivity.run_sensitivity` to give a
byte-equal ``payload()``, and ``benchmarks/bench_perf_grid.py`` times
the two against each other.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core.chip import HeterogeneousChip
from repro.core.optimizer import DEFAULT_R_MAX
from repro.core.ucore import UCore
from repro.devices.bce import BCE, DEFAULT_BCE
from repro.itrs.scenarios import BASELINE, Scenario
from repro.perf.batch import optimize_batch
from repro.projection.designs import DesignSpec, standard_designs
from repro.projection.engine import node_budget
from repro.projection.sensitivity import (
    SensitivityConfig,
    SensitivitySummary,
)


def _perturbed_chip(design: DesignSpec, rng, config: SensitivityConfig):
    """The design's chip with log-normally perturbed U-core parameters."""
    chip = design.chip
    if not isinstance(chip, HeterogeneousChip):
        return chip
    ucore = chip.ucore
    return HeterogeneousChip(
        UCore(
            name=ucore.name,
            mu=ucore.mu * float(rng.lognormal(0.0, config.mu_sigma)),
            phi=ucore.phi * float(rng.lognormal(0.0, config.phi_sigma)),
            kind=ucore.kind,
            workload=ucore.workload,
        )
    )


def reference_sensitivity(
    workload: str,
    f: float,
    node_nm: int = 11,
    scenario: Scenario = BASELINE,
    fft_size: Optional[int] = None,
    config: SensitivityConfig = SensitivityConfig(),
    designs: Optional[Sequence[DesignSpec]] = None,
    bce: BCE = DEFAULT_BCE,
    r_max: int = DEFAULT_R_MAX,
) -> SensitivitySummary:
    """Same signature and result as ``run_sensitivity``, one trial at
    a time."""
    if workload == "fft" and fft_size is None:
        fft_size = 1024
    if designs is None:
        designs = standard_designs(workload, fft_size, bce)
    node = scenario.roadmap.node(node_nm)
    rng = np.random.default_rng(config.seed)
    summary = SensitivitySummary(
        workload=workload, f=f, node_nm=node_nm, trials=config.trials
    )
    for design in designs:
        summary.speedups[design.short_label] = []
    base_budgets = {
        design.short_label: node_budget(
            node, workload, fft_size, scenario, bce,
            design.bandwidth_exempt,
        )
        for design in designs
    }
    for _ in range(config.trials):
        bw_mult = float(rng.lognormal(0.0, config.bandwidth_sigma))
        power_mult = float(rng.lognormal(0.0, config.power_sigma))
        best_label, best_speed = None, -math.inf
        for design in designs:
            chip = _perturbed_chip(design, rng, config)
            budget = base_budgets[design.short_label].scaled(
                power=power_mult, bandwidth=bw_mult
            )
            point = optimize_batch(chip, f, [budget], r_max)[0]
            if point is None:
                continue
            summary.speedups[design.short_label].append(point.speedup)
            if point.speedup > best_speed:
                best_label, best_speed = design.short_label, point.speedup
        if best_label is not None:
            summary.win_counts[best_label] = (
                summary.win_counts.get(best_label, 0) + 1
            )
    return summary
