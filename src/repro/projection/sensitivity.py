"""Monte-Carlo sensitivity analysis (Section 6.3, "Model validity").

The paper is explicit that its predictions rest on measured parameters
and ITRS assumptions that "will go askew" to some degree.  This module
quantifies how much that matters: it perturbs the calibrated inputs
(each U-core's mu and phi, the bandwidth and power budgets) by
log-normal multipliers of configurable spread, re-runs the projection,
and reports how often each design wins and how wide each design's
speedup distribution is.

A conclusion that survives a +/-30% parameter fog is a robust one;
the headline claims of the paper do (see the sensitivity benchmark).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.chip import HeterogeneousChip
from ..core.optimizer import DEFAULT_R_MAX, DesignPoint
from ..devices.bce import BCE, DEFAULT_BCE
from ..errors import ModelError
from ..itrs.scenarios import BASELINE, Scenario
from ..perf.batch import optimize_batch
from .designs import DesignSpec, standard_designs
from .engine import node_budget

__all__ = [
    "SensitivityConfig",
    "SensitivitySummary",
    "run_sensitivity",
]


@dataclass(frozen=True)
class SensitivityConfig:
    """What to perturb and by how much.

    Each sigma is the standard deviation of a log-normal multiplier
    (sigma = 0.3 means most draws land within roughly +/-30%).
    """

    mu_sigma: float = 0.3
    phi_sigma: float = 0.3
    bandwidth_sigma: float = 0.2
    power_sigma: float = 0.2
    trials: int = 200
    seed: int = 2010  # the paper's year

    def __post_init__(self) -> None:
        for name in ("mu_sigma", "phi_sigma", "bandwidth_sigma",
                     "power_sigma"):
            if getattr(self, name) < 0:
                raise ModelError(f"{name} must be >= 0")
        if self.trials < 1:
            raise ModelError(f"trials must be >= 1, got {self.trials}")


@dataclass
class SensitivitySummary:
    """Per-design outcome distribution across trials."""

    workload: str
    f: float
    node_nm: int
    trials: int
    win_counts: Dict[str, int] = field(default_factory=dict)
    speedups: Dict[str, List[float]] = field(default_factory=dict)

    def win_rate(self, label: str) -> float:
        return self.win_counts.get(label, 0) / self.trials

    def median_speedup(self, label: str) -> float:
        values = self.speedups.get(label)
        if not values:
            return float("nan")
        return float(np.median(values))

    def spread(self, label: str) -> float:
        """Interquartile range / median: relative uncertainty."""
        values = self.speedups.get(label)
        if not values:
            return float("nan")
        q1, q3 = np.percentile(values, [25, 75])
        med = np.median(values)
        return float((q3 - q1) / med) if med else float("nan")

    def most_frequent_winner(self) -> str:
        return max(self.win_counts, key=self.win_counts.get)

    def payload(self) -> Dict[str, object]:
        """JSON-ready summary (NaN becomes ``None``).

        This is the serialization the campaign layer checkpoints into
        its content-addressed store (:mod:`repro.campaign`), so the
        dict must stay canonical-JSON safe: plain types only, no
        non-finite floats, labels in sorted order.
        """

        def finite(value: float) -> Optional[float]:
            return value if math.isfinite(value) else None

        labels = sorted(self.speedups)
        return {
            "trials": self.trials,
            "win_counts": {
                label: self.win_counts.get(label, 0) for label in labels
            },
            "win_rates": {
                label: self.win_rate(label) for label in labels
            },
            "median_speedups": {
                label: finite(self.median_speedup(label))
                for label in labels
            },
            "spreads": {
                label: finite(self.spread(label)) for label in labels
            },
            "speedups": {
                label: list(self.speedups[label]) for label in labels
            },
        }


#: Trials per kernel call.  Bounds the grid (and the design points
#: held for the tally) however many trials a config asks for.
TRIAL_BLOCK = 2048


def _draw_multipliers(
    rng: np.random.Generator,
    config: SensitivityConfig,
    n_ucore: int,
) -> np.ndarray:
    """Every trial's log-normal multipliers, one row per trial.

    Columns follow the per-trial draw order: bandwidth, power, then
    ``(mu, phi)`` for each of the ``n_ucore`` heterogeneous designs in
    design order.  ``lognormal`` with an array of sigmas draws element
    by element, so this single call consumes the generator exactly as
    the equivalent sequence of scalar draws would.
    """
    sigmas = [config.bandwidth_sigma, config.power_sigma]
    sigmas += [config.mu_sigma, config.phi_sigma] * n_ucore
    draws = rng.lognormal(0.0, np.tile(sigmas, config.trials))
    return draws.reshape(config.trials, len(sigmas))


def run_sensitivity(
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
    """Monte-Carlo projection at one node under parameter uncertainty.

    Every trial draws fresh multipliers for the node's bandwidth and
    power budgets and for each U-core's (mu, phi), re-optimises every
    design, and tallies the winner (first strictly best in design
    order).  All draws are made up front; each design's trials then
    run as one batched r-sweep with per-trial (mu, phi) rows.
    """
    if workload == "fft" and fft_size is None:
        fft_size = 1024
    if designs is None:
        designs = standard_designs(workload, fft_size, bce)
    node = scenario.roadmap.node(node_nm)
    rng = np.random.default_rng(config.seed)
    summary = SensitivitySummary(
        workload=workload, f=f, node_nm=node_nm, trials=config.trials
    )
    labels = [design.short_label for design in designs]
    for label in labels:
        summary.speedups[label] = []

    # Only plain heterogeneous chips are perturbed; each takes the
    # next (mu, phi) column pair of the draw matrix.
    ucore_column: Dict[int, int] = {}
    for k, design in enumerate(designs):
        if isinstance(design.chip, HeterogeneousChip):
            ucore_column[k] = 2 + 2 * len(ucore_column)
    draws = _draw_multipliers(rng, config, len(ucore_column))

    # One cached derivation per design; trials only rescale it.
    base_budgets = [
        node_budget(
            node, workload, fft_size, scenario, bce,
            design.bandwidth_exempt,
        )
        for design in designs
    ]

    def evaluate(k: int, block: np.ndarray) -> List[Optional[DesignPoint]]:
        """One design's r-sweep over a block of trials."""
        budgets = [
            base_budgets[k].scaled(power=float(pm), bandwidth=float(bm))
            for bm, pm in block[:, :2]
        ]
        col = ucore_column.get(k)
        if col is None:
            return optimize_batch(designs[k].chip, f, budgets, r_max)
        # A plain chip, as when each trial built one from its
        # perturbed U-core: only (mu, phi) carry over.
        ucore = designs[k].chip.ucore
        return optimize_batch(
            HeterogeneousChip(ucore), f, budgets, r_max,
            mu=ucore.mu * block[:, col],
            phi=ucore.phi * block[:, col + 1],
        )

    for lo in range(0, config.trials, TRIAL_BLOCK):
        block = draws[lo:lo + TRIAL_BLOCK]
        columns = [evaluate(k, block) for k in range(len(designs))]
        for row in zip(*columns):
            best_label, best_speed = None, -math.inf
            for label, point in zip(labels, row):
                if point is None:
                    continue
                summary.speedups[label].append(point.speedup)
                if point.speedup > best_speed:
                    best_label, best_speed = label, point.speedup
            if best_label is not None:
                summary.win_counts[best_label] = (
                    summary.win_counts.get(best_label, 0) + 1
                )
    return summary
