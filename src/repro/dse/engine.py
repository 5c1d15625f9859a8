"""Config-space expansion and evaluation for the DSE engine.

A :class:`DSEScenario` expands into a deterministic list of
:class:`DSEConfig` -- the cartesian product of chips, parallel
fractions, roadmap nodes, and area/power budget scales.  Configs that
share a chip and a parallel fraction differ only in their budgets, so
each such group is evaluated by one batched r-sweep
(:func:`repro.perf.batch.optimize_batch`, bit-identical to the scalar
:func:`repro.core.optimizer.optimize` per config).  When the
scenario's provider is not the paper baseline the chip is wrapped in
a :class:`_ProviderChip` adapter that substitutes the provider's
sequential law and effective-fabric mapping; its own ``model_id``
routes it through the kernel's generic per-cell path.  The ``table1``
provider is detected (`identity = True`) and skips the wrapper
entirely, so its results are bit-identical to :mod:`repro.projection`.

Every group runs under one ``dse.evaluate`` span, and campaign
integration lives in :func:`execute_pareto_task` (sharded exhaustive
sweep; its payload carries the shard's dominance-pruned front).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.chip import ChipModel, HeterogeneousChip
from ..core.constraints import Budget
from ..core.multicore import MultiUCoreChip, WorkloadSegment
from ..core.optimizer import DEFAULT_R_MAX, DesignPoint
from ..core.ucore import UCore
from ..devices.bce import BCE, DEFAULT_BCE
from ..errors import ModelError
from ..obs.metrics import get_registry
from ..obs.stream import emit as emit_event
from ..obs.trace import get_tracer
from ..perf.batch import effective_n_batch, optimize_batch
from ..projection.engine import node_budget
from .dsl import (
    BEST_SUBSTRATE,
    SUBSTRATES,
    ChipSpec,
    DSEScenario,
    SegmentSpec,
)
from .front import DSEPoint, pareto_front
from .providers import DSEProvider, get_provider

__all__ = [
    "DSEConfig",
    "resolve_chip",
    "expand_configs",
    "evaluate_config",
    "evaluate_configs",
    "exhaustive_sweep",
    "feasible_signatures",
    "execute_pareto_task",
]


class _ProviderChip(ChipModel):
    """A chip seen through a provider's performance regime.

    Delegates the Table 1 bound structure to the inner chip, but maps
    the built fabric ``m = n - r`` through the provider's
    ``effective_parallel`` before the speedup formula sees it, and
    routes sequential performance through the provider's law.  When
    the provider returns ``m`` unchanged the original ``n`` is passed
    through untouched (``r + (n - r)`` would not be bit-identical in
    floats).

    The ``model_id`` is the adapter's own: with the inner chip's id,
    the batch kernel would apply that model's closed-form formulas and
    skip ``effective_parallel`` and ``perf_seq``.  Any id other than
    symmetric/dynamic keeps the scalar offload-style fabric rule.
    """

    def __init__(self, inner: ChipModel, provider: DSEProvider):
        super().__init__(provider.perf_seq)
        self.inner = inner
        self.provider = provider
        self.model_id = f"{provider.name}:{inner.model_id}"

    @property
    def label(self) -> str:
        return self.inner.label

    def _effective_n(self, n: float, r: float) -> float:
        m = n - r
        if m <= 0:
            return n
        m_eff = self.provider.effective_parallel(m)
        return n if m_eff == m else r + m_eff

    def speedup(self, f: float, n: float, r: float) -> float:
        return self.inner.speedup(f, self._effective_n(n, r), r)

    def bound_power(self, budget: Budget, r: float) -> float:
        return self.inner.bound_power(budget, r)

    def bound_bandwidth(self, budget: Budget, r: float) -> float:
        return self.inner.bound_bandwidth(budget, r)

    def parallel_power(self, n: float, r: float, alpha: float) -> float:
        return self.inner.parallel_power(n, r, alpha)

    def parallel_perf(self, n: float, r: float) -> float:
        return self.inner.parallel_perf(self._effective_n(n, r), r)


def _substrate_ucore(
    device: str,
    workload: str,
    fft_size: Optional[int],
    bce: BCE,
) -> UCore:
    from ..devices.params import ucore_for

    return ucore_for(device, workload, fft_size, bce)


def _best_substrate(
    workload: str, fft_size: Optional[int], bce: BCE
) -> str:
    """The highest-``mu`` substrate for a workload (ties: list order)."""
    best_name, best_mu = SUBSTRATES[0], -math.inf
    for device in SUBSTRATES:
        mu = _substrate_ucore(device, workload, fft_size, bce).mu
        if mu > best_mu:
            best_name, best_mu = device, mu
    return best_name


def resolve_chip(
    spec: ChipSpec,
    workload: str,
    fft_size: Optional[int] = None,
    bce: BCE = DEFAULT_BCE,
) -> Tuple[ChipModel, bool]:
    """Instantiate a chip spec against calibrated U-core parameters.

    Returns ``(chip, bandwidth_exempt)``.  The paper's exemption rule
    carries over: an all-ASIC chip on MMM lifts the bandwidth bound
    (blocking at N >= 2048 gives effectively unbounded arithmetic
    intensity); any non-ASIC substrate on the die keeps it.
    """
    if spec.kind == "single":
        device = str(spec.device)
        ucore = _substrate_ucore(device, workload, fft_size, bce)
        exempt = device == "ASIC" and workload == "mmm"
        return HeterogeneousChip(ucore), exempt
    devices = [
        (
            _best_substrate(workload, fft_size, bce)
            if seg.device == BEST_SUBSTRATE
            else seg.device
        )
        for seg in spec.segments
    ]
    segments = [
        WorkloadSegment(
            name=seg.name,
            weight=seg.weight,
            ucore=_substrate_ucore(device, workload, fft_size, bce),
        )
        for seg, device in zip(spec.segments, devices)
    ]
    exempt = workload == "mmm" and all(d == "ASIC" for d in devices)
    return MultiUCoreChip(segments), exempt


def _default_chip_specs() -> Tuple[ChipSpec, ...]:
    """Scenario with no chips: the paper's five single-U-core designs."""
    return tuple(
        ChipSpec(kind="single", device=device) for device in SUBSTRATES
    )


@dataclass(frozen=True, eq=False)
class DSEConfig:
    """One fully resolved point of the exploration space.

    ``budget`` is the nominal (grid-scaled, provider-untransformed)
    budget; ``chip`` is already resolved against calibrated U-core
    parameters and wrapped for the provider when needed.
    """

    config_id: str
    scenario: str
    provider: str
    chip: ChipModel
    chip_label: str
    workload: str
    f: float
    node: str
    area_scale: float
    power_scale: float
    budget: Budget
    eval_budget: Budget  # provider-transformed


def expand_configs(
    scenario: DSEScenario,
    area_scale_grid: Sequence[float] = (1.0,),
    power_scale_grid: Sequence[float] = (1.0,),
    bce: BCE = DEFAULT_BCE,
) -> List[DSEConfig]:
    """The deterministic config list for one scenario.

    Order: chips (spec order), then ``f_values``, then roadmap nodes,
    then the area grid, then the power grid -- stable across runs, so
    shard assignment (``configs[shard::shards]``) is reproducible.
    """
    provider = get_provider(scenario.provider)
    itrs_scenario = scenario.to_scenario()
    chip_specs = scenario.chips or _default_chip_specs()
    configs: List[DSEConfig] = []
    for chip_idx, chip_spec in enumerate(chip_specs):
        chip, exempt = resolve_chip(
            chip_spec, scenario.workload, scenario.fft_size, bce
        )
        if not provider.identity:
            chip = _ProviderChip(chip, provider)
        label = chip.label
        for f in scenario.f_values:
            for node in itrs_scenario.roadmap.nodes:
                base = node_budget(
                    node,
                    scenario.workload,
                    scenario.fft_size,
                    itrs_scenario,
                    bce,
                    exempt,
                )
                for sa in area_scale_grid:
                    for sp in power_scale_grid:
                        budget = base.scaled(area=sa, power=sp)
                        configs.append(
                            DSEConfig(
                                config_id=(
                                    f"{label}#{chip_idx}|{node.label}"
                                    f"|f={f!r}|a={sa!r}|p={sp!r}"
                                ),
                                scenario=scenario.name,
                                provider=scenario.provider,
                                chip=chip,
                                chip_label=label,
                                workload=scenario.workload,
                                f=f,
                                node=node.label,
                                area_scale=float(sa),
                                power_scale=float(sp),
                                budget=budget,
                                eval_budget=provider.transform_budget(
                                    budget
                                ),
                            )
                        )
    return configs


def _point_from_design(
    config: DSEConfig, design: DesignPoint
) -> DSEPoint:
    return DSEPoint(
        config_id=config.config_id,
        scenario=config.scenario,
        provider=config.provider,
        chip=config.chip_label,
        workload=config.workload,
        f=config.f,
        node=config.node,
        area_scale=config.area_scale,
        power_scale=config.power_scale,
        area=config.budget.area,
        power=config.budget.power,
        speedup=design.speedup,
        r=design.r,
        n=design.n,
        limiter=design.limiter.value,
    )


def _configs_counter():
    """The process-wide evaluation counter (renders in ``/metrics``).

    Lives in the global obs registry so in-process campaign workers
    (the job manager's thread pool) surface their progress through the
    serving layer's merged Prometheus exposition.
    """
    return get_registry().counter(
        "repro_dse_configs_evaluated_total",
        "DSE configurations evaluated by outcome",
    )


#: Most configs one kernel call evaluates; bounds the grid's memory
#: when a single (chip, f) group spans a large budget grid.
GROUP_ROWS = 4096


def config_groups(
    configs: Sequence[DSEConfig],
) -> Iterator[Tuple[ChipModel, float, List[int]]]:
    """Indices of ``configs`` grouped by ``(chip, f)``, in first-seen
    order, each group split into chunks of at most :data:`GROUP_ROWS`.

    A group's configs differ only in their budgets, so one batched
    r-sweep over the group's budgets evaluates all of them.
    """
    groups: Dict[Tuple[int, float], List[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault((id(config.chip), config.f), []).append(i)
    for indices in groups.values():
        first = configs[indices[0]]
        for lo in range(0, len(indices), GROUP_ROWS):
            yield first.chip, first.f, indices[lo:lo + GROUP_ROWS]


def _evaluate_group(
    configs: Sequence[DSEConfig], r_max: int
) -> List[Optional[DSEPoint]]:
    """One batched r-sweep over configs sharing ``(chip, f)``."""
    first = configs[0]
    with get_tracer().span(
        "dse.evaluate",
        attributes={
            "dse.chip": first.chip_label,
            "dse.provider": first.provider,
            "dse.f": first.f,
            "dse.configs": len(configs),
        },
    ) as span:
        designs = optimize_batch(
            first.chip, first.f, [c.eval_budget for c in configs], r_max
        )
        points = [
            None if design is None else _point_from_design(config, design)
            for config, design in zip(configs, designs)
        ]
        infeasible = sum(point is None for point in points)
        span.set_attribute("dse.infeasible", infeasible)
        counter = _configs_counter()
        if infeasible < len(points):
            counter.inc(len(points) - infeasible, outcome="ok")
        if infeasible:
            counter.inc(infeasible, outcome="infeasible")
        return points


def evaluate_config(
    config: DSEConfig, r_max: int = DEFAULT_R_MAX
) -> Optional[DSEPoint]:
    """Full r-sweep for one config; ``None`` when infeasible."""
    return _evaluate_group([config], r_max)[0]


def evaluate_configs(
    configs: Sequence[DSEConfig], r_max: int = DEFAULT_R_MAX
) -> List[Optional[DSEPoint]]:
    """:func:`evaluate_config` for every config, one kernel call per
    ``(chip, f)`` group; results in ``configs`` order."""
    out: List[Optional[DSEPoint]] = [None] * len(configs)
    for _, _, indices in config_groups(configs):
        points = _evaluate_group([configs[i] for i in indices], r_max)
        for i, point in zip(indices, points):
            out[i] = point
    return out


def exhaustive_sweep(
    configs: Sequence[DSEConfig],
    r_max: int = DEFAULT_R_MAX,
) -> Tuple[List[DSEPoint], int]:
    """Evaluate every config fully; returns (points, n_infeasible)."""
    evaluated = evaluate_configs(configs, r_max=r_max)
    points = [point for point in evaluated if point is not None]
    return points, len(evaluated) - len(points)


Signature = Tuple[Tuple[int, float], ...]


def feasible_signatures(
    configs: Sequence[DSEConfig], r_max: int = DEFAULT_R_MAX
) -> List[Optional[Signature]]:
    """Each config's ``(r, n_effective)`` vector over its feasible r.

    Two configs with the same chip, ``f`` and signature produce
    bit-identical r-sweeps (speedup depends only on ``(f, n, r)``),
    which is what lets successive halving share one evaluation across
    a whole equivalence class.  ``None`` marks a config whose serial
    bounds are infeasible outright (no ``r >= 1`` fits).  The bounds
    come from one grid pass per ``(chip, f)`` group.
    """
    out: List[Optional[Signature]] = [None] * len(configs)
    for chip, _, indices in config_groups(configs):
        budgets = [configs[i].eval_budget for i in indices]
        n_eff = effective_n_batch(chip, budgets, r_max).tolist()
        for i, budget, row in zip(indices, budgets, n_eff):
            ceiling = chip.max_serial_r(budget)
            if not ceiling >= 1:  # also rejects NaN
                continue
            # The feasible r are 1..floor(ceiling), capped at r_max.
            count = r_max if ceiling >= r_max else int(ceiling)
            out[i] = tuple(zip(range(1, count + 1), row))
    return out


def execute_pareto_task(task: Any) -> Dict[str, Any]:
    """Campaign executor for :class:`ParetoFrontTask`.

    Evaluates the task's shard of the config space exhaustively and
    returns the shard's dominance-pruned front (merging shard fronts
    recovers the global front; see :mod:`repro.dse.front`).
    """
    import json as _json

    from dataclasses import asdict

    scenario = DSEScenario.from_payload(
        _json.loads(task.scenario_json)
    )
    configs = expand_configs(
        scenario, task.area_scale_grid, task.power_scale_grid
    )
    shard_configs = configs[task.shard :: task.shards]
    points, infeasible = exhaustive_sweep(
        shard_configs, r_max=task.r_max
    )
    front = pareto_front(points)
    # One front update per evaluated shard on the ambient campaign
    # stream (no-op outside a streamed campaign).
    emit_event(
        "dse.front",
        {
            "mode": "pareto",
            "shard": task.shard,
            "shards": task.shards,
            "front_size": len(front),
            "points": len(points),
        },
    )
    return {
        "kind": "dse-pareto",
        "task": asdict(task),
        "scenario": scenario.name,
        "provider": scenario.provider,
        "n_configs": len(configs),
        "n_shard_configs": len(shard_configs),
        "n_evaluated": len(points),
        "n_infeasible": infeasible,
        "front": [point.payload() for point in front],
    }
