"""Tests for the Pareto-frontier and sensitivity-analysis extensions."""

import json

import pytest
from sensitivity_reference import reference_sensitivity

from repro.core.chip import DynamicCMP, HeterogeneousAssistedChip
from repro.errors import ModelError
from repro.itrs.scenarios import get_scenario
from repro.projection import sensitivity
from repro.projection.pareto import (
    ParetoPoint,
    design_space_points,
    pareto_frontier,
)
from repro.projection.designs import DesignSpec, standard_designs
from repro.projection.sensitivity import (
    SensitivityConfig,
    run_sensitivity,
)


class TestParetoPoint:
    def _point(self, speedup, energy):
        design = standard_designs("mmm")[0]
        return ParetoPoint(
            design=design, r=1, n=10, speedup=speedup, energy=energy
        )

    def test_dominance(self):
        better = self._point(10.0, 0.5)
        worse = self._point(5.0, 1.0)
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_no_self_dominance(self):
        p = self._point(10.0, 0.5)
        assert not p.dominates(p)

    def test_incomparable(self):
        fast_hot = self._point(10.0, 1.0)
        slow_cool = self._point(5.0, 0.2)
        assert not fast_hot.dominates(slow_cool)
        assert not slow_cool.dominates(fast_hot)


class TestDesignSpace:
    def test_points_cover_every_design(self):
        points = design_space_points("mmm", 0.99, 22)
        labels = {p.design.short_label for p in points}
        assert labels == {
            "SymCMP", "AsymCMP", "LX760", "GTX285", "GTX480", "R5870",
            "ASIC",
        }

    def test_multiple_r_per_design(self):
        points = design_space_points("mmm", 0.99, 22)
        asic_rs = {p.r for p in points if p.design.short_label == "ASIC"}
        assert len(asic_rs) > 5

    def test_fft_defaults_size(self):
        points = design_space_points("fft", 0.9, 40)
        assert points  # runs without explicit size


class TestFrontier:
    def test_frontier_is_nondominated(self):
        points = design_space_points("mmm", 0.99, 22)
        frontier = pareto_frontier(points)
        for fp in frontier:
            assert not any(p.dominates(fp) for p in points)

    def test_frontier_sorted_and_monotone(self):
        frontier = pareto_frontier(design_space_points("mmm", 0.99, 22))
        energies = [p.energy for p in frontier]
        speedups = [p.speedup for p in frontier]
        assert energies == sorted(energies)
        assert speedups == sorted(speedups)

    def test_asic_on_the_frontier(self):
        # Custom logic must appear on the MMM frontier at high f -- it
        # is both the fastest and the most energy-efficient fabric.
        frontier = pareto_frontier(design_space_points("mmm", 0.99, 22))
        assert any(p.design.short_label == "ASIC" for p in frontier)

    def test_cmps_dominated_at_high_f(self):
        # At f=0.99 the plain CMPs should not reach the frontier's
        # fast end; if present at all they sit at the frugal tail.
        frontier = pareto_frontier(design_space_points("mmm", 0.99, 22))
        fastest = max(frontier, key=lambda p: p.speedup)
        assert fastest.design.short_label not in ("SymCMP", "AsymCMP")

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            pareto_frontier([])


class TestSensitivity:
    @pytest.fixture(scope="class")
    def summary(self):
        return run_sensitivity(
            "mmm", 0.99, node_nm=11,
            config=SensitivityConfig(trials=60, seed=7),
        )

    def test_trials_accounted(self, summary):
        assert sum(summary.win_counts.values()) == 60

    def test_asic_wins_robustly(self, summary):
        # The paper's MMM conclusion survives +/-30% parameter noise.
        assert summary.most_frequent_winner() == "ASIC"
        assert summary.win_rate("ASIC") > 0.8

    def test_speedup_distributions_populated(self, summary):
        for label in ("ASIC", "GTX285", "SymCMP"):
            assert len(summary.speedups[label]) == 60

    def test_spread_is_finite_positive(self, summary):
        spread = summary.spread("ASIC")
        assert 0 < spread < 2.0

    def test_median_close_to_deterministic(self, summary):
        from repro.projection.engine import project

        deterministic = project("mmm", 0.99).by_label()[
            "ASIC"
        ].final_speedup()
        assert summary.median_speedup("ASIC") == pytest.approx(
            deterministic, rel=0.35
        )

    def test_bandwidth_noise_shifts_fft_plateau(self):
        # FFT is bandwidth-pinned, so its spread tracks the bandwidth
        # sigma closely; with sigma=0 the plateau barely moves.
        noisy = run_sensitivity(
            "fft", 0.99, node_nm=11,
            config=SensitivityConfig(
                trials=40, bandwidth_sigma=0.4, mu_sigma=0.0,
                phi_sigma=0.0, power_sigma=0.0, seed=3,
            ),
        )
        quiet = run_sensitivity(
            "fft", 0.99, node_nm=11,
            config=SensitivityConfig(
                trials=40, bandwidth_sigma=0.0, mu_sigma=0.0,
                phi_sigma=0.0, power_sigma=0.0, seed=3,
            ),
        )
        assert noisy.spread("ASIC") > quiet.spread("ASIC")
        assert quiet.spread("ASIC") == pytest.approx(0.0, abs=1e-9)

    def test_config_validation(self):
        with pytest.raises(ModelError):
            SensitivityConfig(trials=0)
        with pytest.raises(ModelError):
            SensitivityConfig(mu_sigma=-0.1)

    def test_deterministic_given_seed(self):
        a = run_sensitivity(
            "bs", 0.9, config=SensitivityConfig(trials=20, seed=11)
        )
        b = run_sensitivity(
            "bs", 0.9, config=SensitivityConfig(trials=20, seed=11)
        )
        assert a.win_counts == b.win_counts
        assert a.speedups == b.speedups


def _payload_bytes(summary):
    return json.dumps(summary.payload(), sort_keys=True).encode()


class TestSensitivityOracle:
    """The batched study equals the per-trial reference loop, byte for
    byte (``tests/sensitivity_reference.py``)."""

    def _assert_equal(self, *args, **kwargs):
        batched = run_sensitivity(*args, **kwargs)
        reference = reference_sensitivity(*args, **kwargs)
        assert _payload_bytes(batched) == _payload_bytes(reference)
        assert batched.win_counts == reference.win_counts
        return batched

    @pytest.mark.parametrize("workload", ("mmm", "fft", "bs"))
    @pytest.mark.parametrize("node_nm", (22, 11))
    @pytest.mark.parametrize("seed", (7, 2010))
    @pytest.mark.parametrize("trials", (1, 200))
    def test_standard_designs(self, workload, node_nm, seed, trials):
        self._assert_equal(
            workload, 0.99, node_nm,
            config=SensitivityConfig(trials=trials, seed=seed),
        )

    def test_designs_that_take_no_draws(self):
        """Non-heterogeneous chips between U-core designs shift no
        draws."""
        designs = list(standard_designs("mmm"))
        asic = designs[-1].chip.ucore
        designs.insert(3, DesignSpec(
            index=90, label="ASIC+core",
            chip=HeterogeneousAssistedChip(asic),
        ))
        designs.insert(5, DesignSpec(
            index=91, label="DynCMP", chip=DynamicCMP(),
        ))
        self._assert_equal(
            "mmm", 0.9, 22, designs=designs,
            config=SensitivityConfig(trials=50, seed=5),
        )

    def test_infeasible_designs_and_trials(self):
        """Tiny bandwidth draws leave only the bandwidth-exempt ASIC
        feasible, and some trials have no feasible design at all."""
        summary = self._assert_equal(
            "mmm", 0.99, 22, scenario=get_scenario("low-power"),
            config=SensitivityConfig(
                trials=100, seed=1, bandwidth_sigma=3.0, power_sigma=1.0,
            ),
        )
        counts = {label: len(v) for label, v in summary.speedups.items()}
        assert counts["SymCMP"] < counts["ASIC"] < 100
        assert sum(summary.win_counts.values()) == counts["ASIC"]

    def test_trials_span_several_kernel_calls(self, monkeypatch):
        monkeypatch.setattr(sensitivity, "TRIAL_BLOCK", 7)
        self._assert_equal(
            "fft", 0.99, 11, config=SensitivityConfig(trials=50, seed=3),
        )
