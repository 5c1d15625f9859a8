"""Successive halving over the DSE config space -- exact by design.

Naive successive halving keeps the top-scoring half of the configs at
each fidelity rung and hopes the discarded ones would not have made
the front.  Here the model is analytic, which buys two guarantees the
generic algorithm lacks:

1. **Equivalence classes.**  A config's full r-sweep depends only on
   its chip, its parallel fraction, and its *feasibility signature* --
   the vector of ``(r, n_effective)`` pairs over the feasible serial
   sizes (:func:`repro.dse.engine.feasible_signatures`).  Budget grids
   saturate (past the power bound, more area buys nothing), so many
   configs share a signature; one representative evaluation serves
   the whole class, bit-identically.

2. **Sound pruning.**  At each rung every surviving class is scored
   at a low-fidelity r-prefix (a *lower* bound on its full speedup,
   since the full sweep maximises over a superset of ``r``), and an
   *optimistic upper bound* covers its unevaluated serial sizes.  A
   class is pruned only when some other class provably dominates it:
   its lower bound beats this class's upper bound, and its nominal
   budgets cover this class's budget-minimal members.  A pruned
   class therefore cannot contribute a front point -- so the final
   front equals the exhaustive front exactly, while only the
   surviving class representatives are ever evaluated at full
   fidelity (the acceptance tests assert both properties).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.optimizer import DEFAULT_R_MAX
from ..errors import ModelError
from ..obs.stream import emit as emit_event
from ..obs.trace import get_tracer
from ..perf.batch import optimize_batch
from .engine import (
    DSEConfig,
    DSEScenario,
    config_groups,
    evaluate_configs,
    expand_configs,
    feasible_signatures,
)
from .front import DSEPoint, pareto_front

__all__ = ["HalvingResult", "successive_halving", "execute_halving_task"]

DEFAULT_RUNGS = (2, 4)


@dataclass
class _Class:
    """One equivalence class of configs (shared full evaluation)."""

    key: Tuple
    members: List[DSEConfig] = field(default_factory=list)
    signature: Tuple[Tuple[int, float], ...] = ()
    alive: bool = True
    # best design found so far over the evaluated r-prefix.
    lofi: Optional[float] = None
    evaluated_r: int = 0
    rung_evals: int = 0

    @property
    def rep(self) -> DSEConfig:
        return self.members[0]

    @cached_property
    def minimal_budgets(self) -> List[Tuple[float, float]]:
        """The 2D-minimal (area, power) pairs among the members.

        Non-minimal members are dominated by a classmate (equal
        speedup, component-wise smaller budgets), so coverage of the
        minimal pairs is coverage of the whole class.  Cached: read
        only by pruning, after phase 0 has fixed the members.
        """
        pairs = sorted(
            {(m.budget.area, m.budget.power) for m in self.members}
        )
        minimal: List[Tuple[float, float]] = []
        best_power = float("inf")
        for area, power in pairs:  # ascending area, then power
            if power < best_power:
                minimal.append((area, power))
                best_power = power
        return minimal

    def upper_bound(self, r_max: int) -> float:
        """Optimistic speedup bound covering unevaluated serial sizes.

        For every unevaluated feasible ``r``: serial time is at least
        ``(1-f)/perf_seq(r_hi)`` (the law is non-decreasing) and
        parallel time at least ``f / rate(m_hi)`` where ``m_hi`` is
        the largest unevaluated fabric.  Both underestimates together
        overestimate the speedup, so the bound is sound.
        """
        rep = self.rep
        rest = [
            (r, n)
            for r, n in self.signature
            if r > self.evaluated_r
        ]
        lofi = self.lofi if self.lofi is not None else float("-inf")
        if not rest:
            return lofi
        chip, f = rep.chip, rep.f
        r_hi = max(r for r, _ in rest)
        ps = chip.perf_seq(float(r_hi))
        if f == 0.0:
            return max(lofi, ps)
        m_hi = max(n - r for r, n in rest)
        if m_hi <= 0:
            # No fabric at any unevaluated r: those designs are
            # infeasible for f > 0 and cannot improve on lofi.
            return lofi
        rate = chip.parallel_perf(r_hi + m_hi, float(r_hi))
        if rate <= 0:
            return lofi
        optimistic = 1.0 / ((1.0 - f) / ps + f / rate)
        return max(lofi, optimistic)


@dataclass(frozen=True)
class HalvingResult:
    """Outcome of one successive-halving search."""

    points: Tuple[DSEPoint, ...]
    front: Tuple[DSEPoint, ...]
    n_configs: int
    n_classes: int
    n_infeasible: int
    pruned_classes: int
    full_evaluations: int
    rung_evaluations: int

    @property
    def full_eval_fraction(self) -> float:
        """Fully evaluated configs over the whole config space."""
        if not self.n_configs:
            return 0.0
        return self.full_evaluations / self.n_configs


def _covers(
    dominator: "_Class", candidate: "_Class"
) -> bool:
    """Every minimal budget pair of ``candidate`` has a member of
    ``dominator`` at component-wise <= budgets."""
    dom_pairs = dominator.minimal_budgets
    for area, power in candidate.minimal_budgets:
        if not any(
            da <= area and dp <= power for da, dp in dom_pairs
        ):
            return False
    return True


def _covers_strictly(
    dominator: "_Class", candidate: "_Class"
) -> bool:
    """Like :func:`_covers`, but every pair is covered with at least
    one strictly smaller budget component."""
    dom_pairs = dominator.minimal_budgets
    for area, power in candidate.minimal_budgets:
        if not any(
            da <= area
            and dp <= power
            and (da < area or dp < power)
            for da, dp in dom_pairs
        ):
            return False
    return True


def _advance(classes: List["_Class"], rung_r: int) -> None:
    """Score every live class up to serial size ``rung_r``.

    A class advances when its signature has a serial size the last
    rung did not reach.  The representatives of the advancing classes
    are swept in one :func:`optimize_batch` per ``(chip, f)`` group;
    the best speedup over ``r <= rung_r`` is the running maximum over
    the rungs so far.
    """
    live = [c for c in classes if c.alive]
    advancing = [
        c
        for c in live
        if any(c.evaluated_r < r <= rung_r for r, _ in c.signature)
    ]
    reps = [c.rep for c in advancing]
    for chip, f, indices in config_groups(reps):
        designs = optimize_batch(
            chip, f, [reps[i].eval_budget for i in indices], rung_r
        )
        for i, design in zip(indices, designs):
            advancing[i].rung_evals += 1
            if design is not None:
                advancing[i].lofi = design.speedup
    for cls in live:
        cls.evaluated_r = max(cls.evaluated_r, rung_r)


def _prune(classes: List["_Class"], r_max: int) -> int:
    """One pruning pass; returns the number of classes retired."""
    alive = [c for c in classes if c.alive]
    bounds = {id(c): c.upper_bound(r_max) for c in alive}
    pruned = 0
    for candidate in alive:
        u = bounds[id(candidate)]
        for other in alive:
            if other is candidate or not other.alive:
                continue
            lofi = other.lofi
            if lofi is None:
                continue
            if lofi > u and _covers(other, candidate):
                candidate.alive = False
                pruned += 1
                break
            if lofi >= u and _covers_strictly(other, candidate):
                candidate.alive = False
                pruned += 1
                break
    return pruned


def successive_halving(
    scenario: DSEScenario,
    area_scale_grid: Sequence[float] = (1.0,),
    power_scale_grid: Sequence[float] = (1.0,),
    rungs: Sequence[int] = DEFAULT_RUNGS,
    r_max: int = DEFAULT_R_MAX,
) -> HalvingResult:
    """Search the scenario's config space (see module docstring)."""
    for lo, hi in zip(rungs, list(rungs)[1:]):
        if hi <= lo:
            raise ModelError(
                f"'rungs' must be strictly increasing, got {rungs}"
            )
    if rungs and rungs[-1] > r_max:
        raise ModelError(
            f"rung fidelity {rungs[-1]} exceeds r_max={r_max}"
        )
    configs = expand_configs(
        scenario, area_scale_grid, power_scale_grid
    )
    # -- phase 0: equivalence classes (no speedup evaluations) -------------
    classes: Dict[Tuple, _Class] = {}
    infeasible = 0
    for config, signature in zip(
        configs, feasible_signatures(configs, r_max)
    ):
        if signature is None:
            infeasible += 1
            continue
        key = (config.chip_label, config.provider, config.f, signature)
        cls = classes.get(key)
        if cls is None:
            cls = classes[key] = _Class(key=key, signature=signature)
        cls.members.append(config)
    ordered = list(classes.values())
    # -- rung loop ---------------------------------------------------------
    pruned_total = 0
    for rung_r in rungs:
        _advance(ordered, rung_r)
        pruned_total += _prune(ordered, r_max)
        # Streamed campaigns watch the search narrow rung by rung
        # (no-op outside a bound event stream).
        emit_event(
            "dse.rung",
            {
                "rung_r": rung_r,
                "alive": sum(1 for c in ordered if c.alive),
                "classes": len(ordered),
                "pruned_total": pruned_total,
            },
        )
    # -- full fidelity for the survivors -----------------------------------
    survivors = [c for c in ordered if c.alive]
    points: List[DSEPoint] = []
    full_evals = len(survivors)
    rep_points = evaluate_configs([c.rep for c in survivors], r_max=r_max)
    for cls, best in zip(survivors, rep_points):
        if best is None:
            infeasible += len(cls.members)
            continue
        for member in cls.members:
            # The class shares (speedup, r, n) bit-identically; the
            # limiter is re-read from the member's own bound set
            # (equal n_effective can come from a different binding
            # budget), so each member's point matches what the
            # exhaustive sweep would emit for it exactly.
            bounds = member.chip.bounds(member.eval_budget, best.r)
            points.append(
                DSEPoint(
                    config_id=member.config_id,
                    scenario=member.scenario,
                    provider=member.provider,
                    chip=member.chip_label,
                    workload=member.workload,
                    f=member.f,
                    node=member.node,
                    area_scale=member.area_scale,
                    power_scale=member.power_scale,
                    area=member.budget.area,
                    power=member.budget.power,
                    speedup=best.speedup,
                    r=best.r,
                    n=best.n,
                    limiter=bounds.limiter.value,
                )
            )
    front = pareto_front(points)
    emit_event(
        "dse.front",
        {
            "mode": "halving",
            "front_size": len(front),
            "points": len(points),
            "survivor_classes": len(survivors),
        },
    )
    return HalvingResult(
        points=tuple(points),
        front=tuple(front),
        n_configs=len(configs),
        n_classes=len(ordered),
        n_infeasible=infeasible,
        pruned_classes=pruned_total,
        full_evaluations=full_evals,
        rung_evaluations=sum(c.rung_evals for c in ordered),
    )


def execute_halving_task(task: Any) -> Dict[str, Any]:
    """Campaign executor for :class:`SuccessiveHalvingTask`."""
    import json as _json

    from dataclasses import asdict

    scenario = DSEScenario.from_payload(
        _json.loads(task.scenario_json)
    )
    with get_tracer().span(
        "dse.halving",
        attributes={"dse.scenario": scenario.name},
    ) as span:
        result = successive_halving(
            scenario,
            area_scale_grid=task.area_scale_grid,
            power_scale_grid=task.power_scale_grid,
            rungs=task.rungs,
            r_max=task.r_max,
        )
        span.set_attribute("dse.n_configs", result.n_configs)
        span.set_attribute(
            "dse.full_evaluations", result.full_evaluations
        )
    return {
        "kind": "dse-halving",
        "task": asdict(task),
        "scenario": scenario.name,
        "provider": scenario.provider,
        "n_configs": result.n_configs,
        "n_classes": result.n_classes,
        "n_infeasible": result.n_infeasible,
        "pruned_classes": result.pruned_classes,
        "full_evaluations": result.full_evaluations,
        "rung_evaluations": result.rung_evaluations,
        "full_eval_fraction": result.full_eval_fraction,
        "front": [point.payload() for point in result.front],
    }
