"""Successive halving: exact front at a fraction of the evaluations.

The ISSUE acceptance criterion is asserted here verbatim: on a
config space of >= 1000 points, halving reaches the *same* Pareto
front as the exhaustive sweep while fully evaluating <= 25% of the
configs.
"""

import pytest

import repro.core.optimizer
import repro.dse.halving as halving
from repro.dse.dsl import (
    ChipSpec,
    DSEScenario,
    SegmentSpec,
    builtin_scenario,
    builtin_scenario_names,
)
from repro.dse.engine import exhaustive_sweep, expand_configs
from repro.dse.front import pareto_front
from repro.dse.halving import DEFAULT_RUNGS, successive_halving
from repro.errors import ModelError

#: >= 1000 configs: 5 chips x 4 f x 5 nodes x 5 area x 2 power.
AREA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
POWER_GRID = (0.5, 1.0)


class TestAcceptance:
    def test_halving_front_equals_exhaustive_on_1000_configs(self):
        scenario = DSEScenario(name="accept")
        configs = expand_configs(scenario, AREA_GRID, POWER_GRID)
        assert len(configs) >= 1000

        points, infeasible = exhaustive_sweep(configs)
        exhaustive_front = pareto_front(points)

        result = successive_halving(
            scenario,
            area_scale_grid=AREA_GRID,
            power_scale_grid=POWER_GRID,
        )
        assert result.n_configs == len(configs)
        assert result.n_infeasible == infeasible
        # exactly the exhaustive front, point for point (same floats,
        # same canonical order)
        assert list(result.front) == exhaustive_front
        # ... at <= 25% of the full-fidelity evaluations
        assert result.full_evaluations <= 0.25 * len(configs)
        assert result.full_eval_fraction <= 0.25

    @pytest.mark.parametrize(
        "provider", ["ginosar-sqrtm", "yavits"]
    )
    def test_exactness_holds_under_alternative_providers(
        self, provider
    ):
        scenario = DSEScenario(
            name=f"alt-{provider}",
            provider=provider,
            f_values=(0.9, 0.999),
        )
        grids = ((0.5, 1.0, 2.0), (1.0,))
        points, _ = exhaustive_sweep(
            expand_configs(scenario, *grids)
        )
        result = successive_halving(
            scenario,
            area_scale_grid=grids[0],
            power_scale_grid=grids[1],
        )
        assert list(result.front) == pareto_front(points)

    def test_exactness_holds_for_multi_ucore_chips(self):
        scenario = _multi_scenario()
        grids = ((0.5, 1.0, 2.0), (0.5, 1.0))
        points, _ = exhaustive_sweep(
            expand_configs(scenario, *grids)
        )
        result = successive_halving(
            scenario,
            area_scale_grid=grids[0],
            power_scale_grid=grids[1],
        )
        assert list(result.front) == pareto_front(points)

    def test_all_points_match_exhaustive_not_just_the_front(self):
        """Class sharing reproduces every survivor bit-identically."""
        scenario = DSEScenario(name="pts", f_values=(0.99,))
        exhaustive = {
            p.config_id: p
            for p in exhaustive_sweep(expand_configs(scenario))[0]
        }
        result = successive_halving(scenario)
        for point in result.points:
            assert exhaustive[point.config_id] == point


def _multi_scenario():
    return DSEScenario(
        name="multi",
        f_values=(0.99,),
        chips=(
            ChipSpec(kind="single", device="ASIC"),
            ChipSpec(
                kind="multi",
                segments=(
                    SegmentSpec(name="hot", weight=3.0, device="ASIC"),
                    SegmentSpec(name="simd", weight=1.0,
                                device="GTX480"),
                ),
            ),
        ),
    )


#: (n_configs, n_classes, n_infeasible, pruned_classes,
#: full_evaluations, rung_evaluations) on AREA_GRID x POWER_GRID, as
#: the per-config scalar implementation reported them.
LEDGERS = {
    "baseline": (1000, 400, 0, 382, 18, 418),
    "low-bandwidth": (1000, 384, 0, 366, 18, 402),
    "high-bandwidth": (1000, 408, 0, 390, 18, 426),
    "half-area": (1000, 512, 0, 488, 24, 536),
    "double-power": (1000, 428, 0, 405, 23, 452),
    "low-power": (1000, 120, 200, 114, 6, 122),
    "high-alpha": (1000, 400, 0, 382, 18, 418),
    "alt-ginosar-sqrtm": (500, 200, 0, 182, 18, 218),
    "alt-yavits": (500, 186, 0, 168, 18, 204),
    "multi": (100, 35, 0, 17, 18, 54),
}


def _ledger_scenarios():
    scenarios = [
        builtin_scenario(name) for name in builtin_scenario_names()
    ]
    scenarios += [
        DSEScenario(name=f"alt-{p}", provider=p, f_values=(0.9, 0.999))
        for p in ("ginosar-sqrtm", "yavits")
    ]
    return scenarios + [_multi_scenario()]


class TestLedger:
    @pytest.mark.parametrize(
        "scenario", _ledger_scenarios(), ids=lambda s: s.name
    )
    def test_front_and_counts_unchanged(self, scenario):
        """Batched phase 0 and survivor evaluation keep the exhaustive
        front and the halving ledger exactly."""
        points, _ = exhaustive_sweep(
            expand_configs(scenario, AREA_GRID, POWER_GRID)
        )
        result = successive_halving(
            scenario,
            area_scale_grid=AREA_GRID,
            power_scale_grid=POWER_GRID,
        )
        assert list(result.front) == pareto_front(points)
        assert (
            result.n_configs, result.n_classes, result.n_infeasible,
            result.pruned_classes, result.full_evaluations,
            result.rung_evaluations,
        ) == LEDGERS[scenario.name]


class TestRungsOnKernel:
    def test_rung_advances_are_one_kernel_call_per_group(
        self, monkeypatch
    ):
        """No scalar evaluation anywhere in the search, and each rung
        sweeps its advancing classes in one call per (chip, f)."""

        def scalar_forbidden(*args, **kwargs):
            raise AssertionError("halving reached the scalar optimizer")

        monkeypatch.setattr(
            repro.core.optimizer, "evaluate_design", scalar_forbidden
        )
        calls = []
        kernel = halving.optimize_batch

        def counted(chip, f, budgets, r_max):
            calls.append((r_max, id(chip), f, len(budgets)))
            return kernel(chip, f, budgets, r_max)

        monkeypatch.setattr(halving, "optimize_batch", counted)
        scenario = builtin_scenario("baseline")
        points, _ = exhaustive_sweep(
            expand_configs(scenario, AREA_GRID, POWER_GRID)
        )
        result = successive_halving(
            scenario,
            area_scale_grid=AREA_GRID,
            power_scale_grid=POWER_GRID,
        )
        assert list(result.front) == pareto_front(points)
        assert {r_max for r_max, *_ in calls} == set(DEFAULT_RUNGS)
        groups = [call[:3] for call in calls]
        assert len(groups) == len(set(groups))
        assert sum(rows for *_, rows in calls) == result.rung_evaluations


class TestValidation:
    def test_rungs_must_increase(self):
        with pytest.raises(ModelError, match="strictly increasing"):
            successive_halving(
                DSEScenario(name="x"), rungs=(4, 2)
            )

    def test_rungs_bounded_by_r_max(self):
        with pytest.raises(ModelError, match="r_max"):
            successive_halving(
                DSEScenario(name="x"), rungs=(2, 32), r_max=16
            )

    def test_stats_are_consistent(self):
        result = successive_halving(
            DSEScenario(name="stats", f_values=(0.99,))
        )
        assert result.n_configs == 25
        assert result.full_evaluations <= result.n_classes
        assert 0.0 < result.full_eval_fraction <= 1.0
        assert len(result.points) + result.n_infeasible <= (
            result.n_configs
        )
