"""Design-point optimisation: the paper's r-sweep (Section 6).

"To determine the optimal size of the sequential core, we sweep all
values of r (sequential core size) up to 16 for each particular design
point and report the maximum speedup."

Given a chip model, a parallel fraction ``f``, and a :class:`Budget`,
the optimizer:

1. enumerates sequential-core sizes ``r`` that satisfy the serial power
   and bandwidth bounds (Table 1, bottom rows),
2. resolves the usable resources ``n`` as the minimum of the three
   parallel-phase bounds,
3. evaluates the speedup formula, and
4. returns the best :class:`DesignPoint`, annotated with the binding
   constraint (area / power / bandwidth) that classifies the point in
   the paper's figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..errors import InfeasibleDesignError, ModelError
from ..obs.profiling import profile_block
from .amdahl import check_fraction
from .chip import ChipModel
from .constraints import BoundSet, Budget, LimitingFactor
from .power import max_r_for_serial_bandwidth, max_r_for_serial_power

__all__ = [
    "DEFAULT_R_MAX",
    "DesignPoint",
    "feasible_r_values",
    "evaluate_design",
    "sweep_designs",
    "optimize",
]

#: The paper sweeps sequential-core sizes r = 1 .. 16.
DEFAULT_R_MAX = 16


@dataclass(frozen=True)
class DesignPoint:
    """One fully resolved design: a chip model at a chosen ``r``.

    Attributes:
        label: chip label (e.g. ``"ASIC"``, ``"SymCMP"``).
        model_id: chip model family identifier.
        f: parallel fraction the point was evaluated at.
        r: sequential-core size in BCE.
        n: usable resources in BCE after applying all bounds.
        speedup: speedup over a single BCE core.
        limiter: the budget that bounds ``n`` (figure line style).
        bounds: the full :class:`BoundSet` for diagnostics.
    """

    label: str
    model_id: str
    f: float
    r: float
    n: float
    speedup: float
    limiter: LimitingFactor
    bounds: BoundSet

    @property
    def parallel_resources(self) -> float:
        """BCE units available to the parallel phase (``n - r``)."""
        return self.n - self.r

    def describe(self) -> str:
        """One-line summary used by reports and the CLI."""
        return (
            f"{self.label}: speedup {self.speedup:.2f}x at r={self.r:g}, "
            f"n={self.n:.1f} ({self.limiter.value}-limited)"
        )


def _binding_serial_bound(chip: ChipModel, budget: Budget) -> str:
    """Name the serial bound that forbids even an r = 1 core."""
    r_power = max_r_for_serial_power(budget.power, budget.alpha)
    r_bw = (
        max_r_for_serial_bandwidth(budget.bandwidth)
        if math.isfinite(budget.bandwidth)
        else math.inf
    )
    bounds = {
        "serial power (r^(alpha/2) <= P)": r_power,
        "serial bandwidth (sqrt(r) <= B)": r_bw,
        "area (r <= A)": budget.area,
    }
    return min(bounds, key=bounds.get)


def feasible_r_values(
    chip: ChipModel,
    budget: Budget,
    r_max: int = DEFAULT_R_MAX,
) -> List[int]:
    """Integer sequential-core sizes satisfying the serial bounds.

    Raises:
        InfeasibleDesignError: the serial bounds forbid even the
            minimum r = 1 core (ceiling below 1, negative, or NaN).
            An empty sweep used to be returned silently here, leaving
            callers to fail later with a less specific message; the
            guard names the binding serial bound instead.
    """
    if r_max < 1:
        raise ModelError(f"r_max must be >= 1, got {r_max}")
    ceiling = chip.max_serial_r(budget)
    if math.isnan(ceiling):  # cannot arise from a valid Budget

        raise InfeasibleDesignError(
            f"serial bounds for {chip.label} under {budget} evaluated "
            f"to NaN; check any custom max_serial_r override"
        )
    if ceiling < 1:
        raise InfeasibleDesignError(
            f"no feasible sequential core for {chip.label} under "
            f"{budget}: max_serial_r = {ceiling:.4g} < 1, bound by "
            f"{_binding_serial_bound(chip, budget)}"
        )
    return [r for r in range(1, r_max + 1) if r <= ceiling]


def evaluate_design(
    chip: ChipModel,
    f: float,
    budget: Budget,
    r: float,
) -> Optional[DesignPoint]:
    """Resolve and score one (chip, r) pair; None if infeasible.

    A pair is infeasible when the serial bounds reject ``r``, or when
    the resolved ``n`` leaves no parallel resources while ``f > 0``.
    """
    check_fraction(f)
    if not chip.serial_feasible(budget, r):
        return None
    bounds = chip.bounds(budget, r)
    n = bounds.n_effective
    if n < r and chip.model_id != "dynamic":
        # The dynamic machine's fused serial core is not carved out of
        # the parallel-phase n, so r may exceed a power-limited n.
        return None
    if (
        f > 0.0
        and n <= r
        and chip.model_id not in ("symmetric", "dynamic")
    ):
        # Offload-style machines need fabric beyond the fast core. The
        # symmetric machine's "fast core" is one of its n/r cores, so
        # n == r (a single core) is still a valid, if poor, design.
        return None
    speedup = chip.speedup(f, n, r)
    return DesignPoint(
        label=chip.label,
        model_id=chip.model_id,
        f=f,
        r=r,
        n=n,
        speedup=speedup,
        limiter=bounds.limiter,
        bounds=bounds,
    )


def sweep_designs(
    chip: ChipModel,
    f: float,
    budget: Budget,
    r_max: int = DEFAULT_R_MAX,
) -> List[DesignPoint]:
    """Evaluate every feasible r; returns points in ascending r order."""
    points = []
    for r in feasible_r_values(chip, budget, r_max):
        point = evaluate_design(chip, f, budget, r)
        if point is not None:
            points.append(point)
    return points


def optimize(
    chip: ChipModel,
    f: float,
    budget: Budget,
    r_max: int = DEFAULT_R_MAX,
) -> DesignPoint:
    """Best design point for (chip, f, budget); the paper's r-sweep.

    Raises:
        InfeasibleDesignError: no ``r`` satisfies the serial bounds, or
            every candidate leaves no usable parallel resources.
    """
    # One phase per optimize() call: the sweep below is the scalar
    # speedup hot path (speedup_heterogeneous et al.), but per-r
    # instrumentation there would dwarf the arithmetic it measures.
    with profile_block("core.optimize", chip=chip.label):
        points = sweep_designs(chip, f, budget, r_max)
        if not points:
            raise InfeasibleDesignError(
                f"no feasible design for {chip.label} under {budget} "
                f"(f={f}, r_max={r_max})"
            )
        return max(points, key=lambda p: p.speedup)
