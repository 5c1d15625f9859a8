"""Differential tests: the batched sweep must match the scalar one.

Bit-for-bit equality is the contract -- every ``DesignPoint`` field,
including the floats, compared with ``==`` (no tolerance).  The grid
covers all standard designs, every roadmap node of every scenario the
paper studies, and the paper's f values; infeasible cells must map a
scalar ``InfeasibleDesignError`` (or exhausted candidate list) to a
batch ``None``.  A hypothesis property extends the same check to
random budgets far off the calibrated grid.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chip import (
    AsymmetricCMP,
    AsymmetricOffloadCMP,
    DynamicCMP,
    HeterogeneousAssistedChip,
    HeterogeneousChip,
    SymmetricCMP,
)
from repro.core.constraints import Budget
from repro.core.optimizer import optimize, sweep_designs
from repro.core.ucore import UCore
from repro.errors import InfeasibleDesignError, ModelError
from repro.itrs.scenarios import get_scenario, scenario_names
from repro.perf.batch import (
    PREFIX_CHANNELS,
    effective_n_batch,
    optimize_batch,
    optimize_prefix_batch,
    sweep_designs_batch,
)
from repro.projection.designs import standard_designs
from repro.projection.engine import node_budget

WORKLOADS = (("fft", 1024), ("mmm", None), ("bs", None))
F_VALUES = (0.0, 0.5, 0.9, 0.99, 0.999, 1.0)


def _all_chips():
    """One instance of every chip model, including U-core variants."""
    gpu = UCore(name="gpu-like", mu=3.0, phi=0.6, kind="gpu")
    asic = UCore(name="asic-like", mu=500.0, phi=5.0, kind="asic")
    return [
        SymmetricCMP(),
        AsymmetricCMP(),
        AsymmetricOffloadCMP(),
        DynamicCMP(),
        HeterogeneousChip(gpu),
        HeterogeneousChip(asic),
        HeterogeneousAssistedChip(gpu),
    ]


def _scalar_optimize(chip, f, budget):
    """Scalar optimize with infeasibility mapped to None (batch's
    convention)."""
    try:
        return optimize(chip, f, budget)
    except InfeasibleDesignError:
        return None


class TestOptimizeBatchMatchesScalar:
    @pytest.mark.parametrize("scenario_name", scenario_names())
    @pytest.mark.parametrize("workload,size", WORKLOADS)
    @pytest.mark.parametrize("f", (0.5, 0.99, 0.999))
    def test_paper_grid(self, scenario_name, workload, size, f):
        """Every standard design at every node, full point equality."""
        scenario = get_scenario(scenario_name)
        for design in standard_designs(workload, size):
            budgets = [
                node_budget(
                    node, workload, size, scenario,
                    bandwidth_exempt=design.bandwidth_exempt,
                )
                for node in scenario.roadmap.nodes
            ]
            batch = optimize_batch(design.chip, f, budgets)
            scalar = [
                _scalar_optimize(design.chip, f, b) for b in budgets
            ]
            assert batch == scalar

    def test_infeasible_budgets_map_to_none(self):
        """Cells where the scalar path raises must come back as None,
        without aborting the feasible cells around them."""
        chip = HeterogeneousChip(
            UCore(name="gpu-like", mu=3.0, phi=0.6, kind="gpu")
        )
        budgets = [
            Budget(area=19.0, power=10.0, bandwidth=42.0),  # feasible
            Budget(area=100.0, power=0.5),  # serial power forbids r=1
            Budget(area=1.0, power=1e9),  # no room for any U-core
            Budget(area=100.0, power=1e9, bandwidth=0.2),  # serial bw
        ]
        points = optimize_batch(chip, 0.99, budgets)
        assert points[0] is not None
        assert points[1] is None
        assert points[2] is None
        assert points[3] is None
        assert points == [
            _scalar_optimize(chip, 0.99, b) for b in budgets
        ]

    @pytest.mark.parametrize("f", F_VALUES)
    def test_edge_fractions_all_models(self, f, basic_budget,
                                       roomy_budget):
        for chip in _all_chips():
            for budget in (basic_budget, roomy_budget):
                assert optimize_batch(chip, f, [budget]) == [
                    _scalar_optimize(chip, f, budget)
                ]

    def test_infinite_speedup_point_survives(self):
        """f=1 with a huge budget: speedup=inf is a result, not None."""
        budget = Budget(area=1e6, power=1e6, bandwidth=1e6)
        [point] = optimize_batch(SymmetricCMP(), 1.0, [budget])
        assert point is not None
        assert point == optimize(SymmetricCMP(), 1.0, budget)

    def test_empty_budget_list(self):
        assert optimize_batch(SymmetricCMP(), 0.5, []) == []


class TestSweepMatchesScalar:
    @pytest.mark.parametrize("f", (0.0, 0.5, 0.999, 1.0))
    def test_all_models(self, f, basic_budget, roomy_budget):
        for chip in _all_chips():
            for budget in (basic_budget, roomy_budget):
                assert sweep_designs_batch(chip, f, budget) == (
                    sweep_designs(chip, f, budget)
                )

    def test_order_is_ascending_r(self, basic_budget):
        points = sweep_designs_batch(SymmetricCMP(), 0.9, basic_budget)
        assert [p.r for p in points] == sorted(p.r for p in points)


@given(
    area=st.floats(0.5, 1e4),
    power=st.floats(0.5, 1e4),
    bandwidth=st.one_of(
        st.just(math.inf), st.floats(0.5, 1e4)
    ),
    alpha=st.floats(1.0, 3.0),
    f=st.sampled_from(F_VALUES),
    chip_index=st.integers(0, len(_all_chips()) - 1),
)
@settings(max_examples=150, deadline=None)
def test_random_budget_parity(area, power, bandwidth, alpha, f,
                              chip_index):
    """optimize_batch == optimize on arbitrary budgets, or both
    infeasible."""
    budget = Budget(
        area=area, power=power, bandwidth=bandwidth, alpha=alpha
    )
    chip = _all_chips()[chip_index]
    assert optimize_batch(chip, f, [budget]) == [
        _scalar_optimize(chip, f, budget)
    ]


def _prefix_expected(chip, f, budgets, r_max):
    """``optimize_batch``'s DesignPoints as the prefix kernel's column:
    NaN for every value channel of an infeasible row."""
    expected = {c: np.full(len(budgets), np.nan) for c in PREFIX_CHANNELS}
    expected["feasible"][:] = 0.0
    for i, point in enumerate(
        optimize_batch(chip, f, budgets, r_max=r_max)
    ):
        if point is None:
            continue
        expected["speedup"][i] = point.speedup
        expected["r"][i] = point.r
        expected["n"][i] = point.n
        expected["n_area"][i] = point.bounds.n_area
        expected["n_power"][i] = point.bounds.n_power
        expected["n_bandwidth"][i] = point.bounds.n_bandwidth
        expected["feasible"][i] = 1.0
    return expected


def _assert_prefix_matches(chip, f, budgets, r_maxes):
    """Every column of the array return equals a fresh
    ``optimize_batch`` at that ``r_max``, compared as raw bits (so NaN
    positions and infinite bounds count too); returns the arrays."""
    prefix = optimize_prefix_batch(chip, f, budgets, r_maxes)
    assert set(prefix) == set(PREFIX_CHANNELS)
    for k, r_max in enumerate(sorted(set(r_maxes))):
        expected = _prefix_expected(chip, f, budgets, r_max)
        for channel in PREFIX_CHANNELS:
            got = prefix[channel]
            assert got.dtype == np.float64
            assert got.shape == (len(budgets), len(set(r_maxes)))
            np.testing.assert_array_equal(
                got[:, k].view(np.uint64),
                expected[channel].view(np.uint64),
                err_msg=f"{chip.label} f={f} r_max={r_max} {channel}",
            )
    return prefix


class TestPrefixBatchMatchesBatch:
    """optimize_prefix_batch's arrays must equal a fresh optimize_batch
    call for every r_max -- same bit-for-bit contract as the scalar
    tests above.  This is the equality the tensor materializer rests
    on."""

    R_MAXES = tuple(range(1, 17))

    @pytest.mark.parametrize("workload,size", WORKLOADS)
    @pytest.mark.parametrize("f", (0.0, 0.5, 0.99, 0.999, 1.0))
    def test_paper_grid_every_r_max(self, workload, size, f):
        scenario = get_scenario("baseline")
        for design in standard_designs(workload, size):
            budgets = [
                node_budget(
                    node, workload, size, scenario,
                    bandwidth_exempt=design.bandwidth_exempt,
                )
                for node in scenario.roadmap.nodes
            ]
            prefix = _assert_prefix_matches(
                design.chip, f, budgets, self.R_MAXES
            )
            if design.bandwidth_exempt:
                feasible = prefix["feasible"] == 1.0
                assert np.isinf(prefix["n_bandwidth"][feasible]).all()

    def test_all_models_basic_budget(self, basic_budget):
        for chip in _all_chips():
            _assert_prefix_matches(chip, 0.9, [basic_budget], self.R_MAXES)

    def test_infeasible_cells_match(self):
        chip = HeterogeneousChip(
            UCore(name="gpu-like", mu=3.0, phi=0.6, kind="gpu")
        )
        budgets = [
            Budget(area=19.0, power=10.0, bandwidth=42.0),
            Budget(area=100.0, power=0.5),
            Budget(area=1.0, power=1e9),
        ]
        prefix = _assert_prefix_matches(chip, 0.99, budgets, (16, 4, 1))
        assert 0.0 in prefix["feasible"]
        assert np.isnan(prefix["speedup"][prefix["feasible"] == 0.0]).all()

    def test_empty_inputs(self):
        empty = optimize_prefix_batch(SymmetricCMP(), 0.5, [], (1, 2))
        assert set(empty) == set(PREFIX_CHANNELS)
        assert all(a.shape == (0, 2) for a in empty.values())
        none = optimize_prefix_batch(
            SymmetricCMP(), 0.5, [Budget(area=10.0, power=10.0)], ()
        )
        assert all(a.shape == (1, 0) for a in none.values())


class TestPerRowUCore:
    """Per-row (mu, phi) overrides equal one chip per row, bit for bit."""

    BASE = UCore(name="gpu-like", mu=3.0, phi=0.6, kind="gpu")
    BUDGETS = (
        Budget(area=19.0, power=10.0, bandwidth=42.0),
        Budget(area=64.0, power=1e9, bandwidth=1e9),
        Budget(area=149.0, power=36.0),
        Budget(area=100.0, power=0.5),  # no feasible serial core
        Budget(area=1.0, power=1e9),  # no fabric beyond r
        Budget(area=300.0, power=80.0, bandwidth=5.0, alpha=2.5),
    )

    def _rows(self, seed):
        rng = np.random.default_rng(seed)
        n = len(self.BUDGETS)
        return (
            self.BASE.mu * rng.lognormal(0.0, 0.8, n),
            self.BASE.phi * rng.lognormal(0.0, 0.8, n),
        )

    @pytest.mark.parametrize(
        "chip_cls", (HeterogeneousChip, HeterogeneousAssistedChip)
    )
    @pytest.mark.parametrize("f", F_VALUES)
    def test_rows_equal_one_chip_per_row(self, chip_cls, f):
        mu, phi = self._rows(seed=int(f * 1000))
        batch = optimize_batch(
            chip_cls(self.BASE), f, self.BUDGETS, mu=mu, phi=phi
        )
        expected = [
            _scalar_optimize(
                chip_cls(UCore(name=self.BASE.name, mu=float(m),
                               phi=float(p), kind="gpu")),
                f, budget,
            )
            for m, p, budget in zip(mu, phi, self.BUDGETS)
        ]
        assert batch == expected

    def test_equal_rows_are_the_per_chip_call(self):
        chip = HeterogeneousChip(self.BASE)
        n = len(self.BUDGETS)
        assert optimize_batch(
            chip, 0.99, self.BUDGETS,
            mu=[self.BASE.mu] * n, phi=[self.BASE.phi] * n,
        ) == optimize_batch(chip, 0.99, self.BUDGETS)

    def test_one_override_keeps_the_other_parameter(self):
        mu, _ = self._rows(seed=3)
        chip = HeterogeneousChip(self.BASE)
        expected = [
            _scalar_optimize(
                HeterogeneousChip(UCore(name=self.BASE.name, mu=float(m),
                                        phi=self.BASE.phi, kind="gpu")),
                0.9, budget,
            )
            for m, budget in zip(mu, self.BUDGETS)
        ]
        assert optimize_batch(chip, 0.9, self.BUDGETS, mu=mu) == expected

    def test_validation(self):
        chip = HeterogeneousChip(self.BASE)
        budgets = self.BUDGETS[:2]
        with pytest.raises(ModelError, match="U-core chip"):
            optimize_batch(SymmetricCMP(), 0.9, budgets, mu=[1.0, 1.0])
        with pytest.raises(ModelError, match="rows"):
            optimize_batch(chip, 0.9, budgets, mu=[1.0])
        with pytest.raises(ModelError, match="positive"):
            optimize_batch(chip, 0.9, budgets, phi=[1.0, 0.0])
        with pytest.raises(ModelError, match="positive"):
            optimize_batch(chip, 0.9, budgets, mu=[1.0, math.nan])


class TestEffectiveN:
    def test_matches_scalar_bounds(self, basic_budget, roomy_budget):
        budgets = [basic_budget, roomy_budget, Budget(area=9.0, power=2.0)]
        for chip in _all_chips():
            grid = effective_n_batch(chip, budgets, r_max=16)
            assert grid.shape == (3, 16)
            for i, budget in enumerate(budgets):
                assert grid[i].tolist() == [
                    chip.bounds(budget, r).n_effective
                    for r in range(1, 17)
                ]

    def test_r_max_validated(self, basic_budget):
        with pytest.raises(ModelError, match="r_max"):
            effective_n_batch(SymmetricCMP(), [basic_budget], r_max=0)
