"""The materialized tensor store: build, verify, lookup, interpolate.

The contract under test is the serving fast path's foundation:

* exact grid hits are **bit-identical** to a live
  :func:`~repro.perf.batch.optimize_batch` call (every channel,
  including non-finite bounds);
* harmonic interpolation between bracketing ``f`` grid points stays
  within the documented :data:`~repro.perf.tensorstore.REL_ERROR_BOUND`
  and is refused (``miss``) whenever it could be wrong -- infeasible
  corners, brackets that disagree on the optimal ``r``, anything
  outside the materialized range (the store never extrapolates);
* integrity: a corrupted channel file or tampered manifest raises
  :class:`~repro.errors.TensorStoreError` at load/verify time, and the
  atomic-rename publish means a store without its manifest does not
  exist.
"""

import base64
import json
import math
import shutil

import pytest

from repro.errors import TensorStoreError
from repro.perf.batch import optimize_batch
from repro.perf.tensorstore import (
    CHANNELS,
    MANIFEST_NAME,
    REL_ERROR_BOUND,
    TensorStore,
    build_tensor_store,
    materialize_spec,
)
from repro.itrs.scenarios import get_scenario
from repro.projection.designs import standard_designs
from repro.projection.engine import node_budget

#: Small but representative grids keep the module-scoped build fast.
F_GRID = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)
R_GRID = tuple(range(1, 17))
WORKLOADS = (("mmm", None), ("bs", None))


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tensors")
    build_tensor_store(
        directory,
        spec=materialize_spec(workloads=WORKLOADS, f_grid=F_GRID,
                              r_grid=R_GRID),
        executor="serial",
    )
    return directory


@pytest.fixture(scope="module")
def store(store_dir):
    return TensorStore.load(store_dir)


def _live_point(workload, design_label, node_nm, f, r_max):
    scenario = get_scenario("baseline")
    design = next(
        d for d in standard_designs(workload, None)
        if d.short_label == design_label
    )
    node = next(
        n for n in scenario.roadmap.nodes if n.node_nm == node_nm
    )
    budget = node_budget(
        node, workload, None, scenario,
        bandwidth_exempt=design.bandwidth_exempt,
    )
    [point] = optimize_batch(design.chip, f, [budget], r_max=r_max)
    return point


class TestBuildAndLoad:
    def test_manifest_is_checksummed_and_described(self, store):
        described = store.describe()
        assert described["groups"] == len(WORKLOADS)
        assert described["f_points"] == len(F_GRID)
        assert described["r_max"] == len(R_GRID)
        assert described["cells"] > 0
        assert store.verify()["status"] == "ok"

    def test_missing_manifest_means_no_store(self, tmp_path):
        with pytest.raises(TensorStoreError, match="no tensor store"):
            TensorStore.load(tmp_path)

    def test_corrupted_channel_fails_checksum(self, store_dir,
                                              tmp_path):
        copy = tmp_path / "corrupt"
        shutil.copytree(store_dir, copy)
        victim = next(copy.glob("*speedup*.f64"))
        blob = bytearray(victim.read_bytes())
        blob[64] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(TensorStoreError, match="checksum"):
            TensorStore.load(copy)

    def test_truncated_channel_fails_on_size(self, store_dir,
                                             tmp_path):
        copy = tmp_path / "truncated"
        shutil.copytree(store_dir, copy)
        victim = next(copy.glob("*.f64"))
        victim.write_bytes(victim.read_bytes()[:-8])
        # Size is checked even with verify=False -- cheap and load-
        # bearing, since memmap would otherwise fail or alias.
        with pytest.raises(TensorStoreError, match="bytes"):
            TensorStore.load(copy, verify=False)

    def test_tampered_manifest_fails_self_checksum(self, store_dir,
                                                   tmp_path):
        copy = tmp_path / "tampered"
        shutil.copytree(store_dir, copy)
        path = copy / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["f_grid"][0] = 0.001
        path.write_text(json.dumps(manifest))
        with pytest.raises(TensorStoreError, match="self-checksum"):
            TensorStore.load(copy)

    def test_foreign_model_version_rejected(self, store_dir, tmp_path):
        from repro.campaign.spec import canonical_json, sha256_text

        copy = tmp_path / "foreign"
        shutil.copytree(store_dir, copy)
        path = copy / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["envelope"]["model_version"] = "0.0.1"
        body = {k: v for k, v in manifest.items() if k != "checksum"}
        manifest["checksum"] = sha256_text(canonical_json(body))
        path.write_text(json.dumps(manifest))
        with pytest.raises(TensorStoreError, match="model version"):
            TensorStore.load(copy)

    def test_empty_workload_set_rejected(self, tmp_path):
        from repro.errors import ModelError

        with pytest.raises(ModelError, match="empty campaign"):
            materialize_spec(workloads=())


class TestExactLookup:
    @pytest.mark.parametrize("workload", ("mmm", "bs"))
    @pytest.mark.parametrize("f", F_GRID)
    def test_hits_are_bit_identical_to_live(self, store, workload, f):
        scenario = get_scenario("baseline")
        for design in standard_designs(workload, None):
            for node in scenario.roadmap.nodes:
                for r_max in (1, 7, 16):
                    cell = store.lookup(
                        "baseline", workload, None,
                        design.short_label, node.node_nm, f, r_max,
                    )
                    assert cell.outcome == "hit"
                    live = _live_point(
                        workload, design.short_label, node.node_nm,
                        f, r_max,
                    )
                    if live is None:
                        assert not cell.feasible
                        continue
                    assert cell.feasible
                    assert cell.values["r"] == live.r
                    assert cell.values["n"] == live.n
                    assert cell.values["speedup"] == live.speedup
                    assert cell.values["n_area"] == live.bounds.n_area
                    assert (
                        cell.values["n_power"] == live.bounds.n_power
                    )
                    assert (
                        cell.values["n_bandwidth"]
                        == live.bounds.n_bandwidth
                    )

    def test_bandwidth_exempt_inf_survives_round_trip(self, store):
        cell = store.lookup(
            "baseline", "mmm", None, "ASIC", 40, 0.99, 16
        )
        assert cell.outcome == "hit" and cell.feasible
        assert math.isinf(cell.values["n_bandwidth"])

    def test_unknown_names_miss(self, store):
        assert store.lookup(
            "baseline", "fft", 1024, "ASIC", 40, 0.5, 16
        ).outcome == "miss"  # workload group not materialized
        assert store.lookup(
            "baseline", "mmm", None, "NotADesign", 40, 0.5, 16
        ).outcome == "miss"
        assert store.lookup(
            "baseline", "mmm", None, "ASIC", 13, 0.5, 16
        ).outcome == "miss"  # node not on the roadmap
        assert store.lookup(
            "dark-silicon", "mmm", None, "ASIC", 40, 0.5, 16
        ).outcome == "miss"  # scenario not materialized

    def test_r_max_outside_grid_misses(self, store):
        assert store.lookup(
            "baseline", "mmm", None, "ASIC", 40, 0.5, 0
        ).outcome == "miss"
        assert store.lookup(
            "baseline", "mmm", None, "ASIC", 40, 0.5, 17
        ).outcome == "miss"


class TestInterpolation:
    def test_boundary_f_values_are_exact_hits(self, store):
        for f in (F_GRID[0], F_GRID[-1]):
            cell = store.lookup(
                "baseline", "mmm", None, "SymCMP", 40, f, 16
            )
            assert cell.outcome == "hit"
            assert cell.interpolation is None

    @pytest.mark.parametrize("f", (0.3, 0.62, 0.93, 0.995))
    @pytest.mark.parametrize("r_max", (1, 16))
    def test_interp_within_documented_bound(self, store, f, r_max):
        """Off-grid f: when the store answers, r/n/bounds are exact
        and the speedup is within REL_ERROR_BOUND of live compute."""
        answered = 0
        for design in ("SymCMP", "GTX480", "ASIC"):
            cell = store.lookup(
                "baseline", "mmm", None, design, 22, f, r_max
            )
            if cell.outcome == "miss":
                # Legal refusal (bracket disagreement/infeasibility);
                # the serving layer falls back to live compute.
                assert cell.reason
                continue
            assert cell.outcome == "interp"
            answered += 1
            live = _live_point("mmm", design, 22, f, r_max)
            assert live is not None
            assert cell.values["r"] == live.r
            assert cell.values["n"] == live.n
            assert cell.values["n_area"] == live.bounds.n_area
            rel = abs(cell.values["speedup"] - live.speedup) / (
                live.speedup
            )
            assert rel <= REL_ERROR_BOUND
            interp = cell.interpolation
            assert interp["kind"] == "harmonic-f"
            f0, f1 = interp["f_bracket"]
            assert f0 < f < f1
            assert interp["rel_error_bound"] == REL_ERROR_BOUND
        assert answered, f"every lookup refused at f={f}"

    def test_disagreeing_brackets_refuse(self, store):
        """Somewhere in (0, 1) the optimal r switches between grid
        points; the store must refuse rather than blend regimes."""
        reasons = set()
        for design in ("SymCMP", "AsymCMP", "GTX480"):
            for f in (0.3, 0.62, 0.8, 0.93):
                cell = store.lookup(
                    "baseline", "mmm", None, design, 40, f, 16
                )
                if cell.outcome == "miss":
                    reasons.add(cell.reason)
        assert "bracketing grid points disagree on r" in reasons

    def test_never_extrapolates_outside_hull(self, tmp_path):
        """A store materialized over [0.4, 0.6] refuses f outside it
        -- fall back, never extrapolate."""
        directory = tmp_path / "narrow"
        build_tensor_store(
            directory,
            spec=materialize_spec(
                workloads=(("mmm", None),),
                f_grid=(0.4, 0.5, 0.6),
                r_grid=R_GRID,
            ),
            executor="serial",
        )
        narrow = TensorStore.load(directory)
        for f in (0.1, 0.39, 0.61, 0.99):
            cell = narrow.lookup(
                "baseline", "mmm", None, "SymCMP", 40, f, 16
            )
            assert cell.outcome == "miss"
            assert cell.reason == "f outside materialized range"
        assert narrow.lookup(
            "baseline", "mmm", None, "SymCMP", 40, 0.45, 16
        ).outcome == "interp"

    def test_non_finite_f_refused(self, store):
        for f in (float("nan"), float("inf"), float("-inf")):
            cell = store.lookup(
                "baseline", "mmm", None, "ASIC", 40, f, 16
            )
            assert cell.outcome == "miss"
            assert cell.reason == "non-finite f"


def _channel_digests(directory):
    import hashlib

    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob("*.f64"))
    }


class TestDefaultBuildGolden:
    """The default CLI build publishes exactly the pinned channel files
    -- names and SHA-256 -- that the per-cell JSON materializer
    produced before the columnar one replaced it."""

    def test_default_build_matches_pinned_digests(self, tmp_path,
                                                  capsys):
        from pathlib import Path

        from repro.cli import main

        fixture = (
            Path(__file__).parent / "fixtures"
            / "tensorstore_default_sha256.json"
        )
        pinned = json.loads(fixture.read_text())["files"]
        directory = tmp_path / "default"
        assert main(["materialize", "build", "--dir", str(directory)]) == 0
        assert "146880 cells" in capsys.readouterr().out
        assert _channel_digests(directory) == pinned
        assert main(["materialize", "verify", "--dir", str(directory)]) == 0


class TestColumnarPayload:
    TASK_KW = dict(workload="mmm", design="ASIC", f_grid=F_GRID,
                   r_grid=R_GRID)

    def test_no_design_point_on_the_materialize_path(self, monkeypatch):
        from repro.campaign.spec import MaterializeTask
        from repro.core.optimizer import DesignPoint
        from repro.perf.tensorstore import materialize_task_payload

        def _forbidden(*args, **kwargs):
            raise AssertionError("DesignPoint built while materializing")

        monkeypatch.setattr(DesignPoint, "__init__", _forbidden)
        payload = materialize_task_payload(MaterializeTask(**self.TASK_KW))
        assert sorted(payload["blocks"]) == sorted(CHANNELS)
        for block in payload["blocks"].values():
            raw = base64.b64decode(block)
            assert len(raw) == 5 * len(F_GRID) * len(R_GRID) * 8

    def test_resume_from_columnar_payloads_is_byte_identical(
        self, store_dir, tmp_path
    ):
        from repro.campaign.store import ResultStore

        spec = materialize_spec(workloads=WORKLOADS, f_grid=F_GRID,
                                r_grid=R_GRID)
        store = ResultStore(tmp_path / "results")
        build_tensor_store(tmp_path / "first", spec=spec, store=store)
        statuses = []
        build_tensor_store(
            tmp_path / "resumed", spec=spec, store=store, resume=True,
            progress=lambda outcome, done, total: statuses.append(
                outcome.status
            ),
        )
        assert statuses and set(statuses) == {"cached"}
        assert (
            _channel_digests(tmp_path / "resumed")
            == _channel_digests(tmp_path / "first")
            == _channel_digests(store_dir)
        )


def _per_cell_payload(task):
    """The per-cell ``"planes"`` payload older builds cached under the
    same task hash: one dict (or None) per ``(f, r_max, node)``, non-
    finite floats as strings.  Speedups are doubled, so assembling
    from it could only ever publish wrong bytes."""
    from repro.perf.tensorstore import materialize_task_payload

    payload = materialize_task_payload(task)
    del payload["blocks"]
    scenario = get_scenario(task.scenario)
    design = next(
        d for d in standard_designs(task.workload, task.fft_size)
        if d.short_label == task.design
    )
    budgets = [
        node_budget(node, task.workload, task.fft_size, scenario,
                    bandwidth_exempt=design.bandwidth_exempt)
        for node in scenario.roadmap.nodes
    ]

    def encode(value):
        return value if math.isfinite(value) else str(value)

    def cell(point):
        if point is None:
            return None
        return {
            "r": point.r,
            "n": point.n,
            "speedup": 2.0 * point.speedup,
            "n_area": encode(point.bounds.n_area),
            "n_power": encode(point.bounds.n_power),
            "n_bandwidth": encode(point.bounds.n_bandwidth),
        }

    payload["planes"] = [
        [
            [cell(p) for p in optimize_batch(design.chip, f, budgets,
                                             r_max=r_max)]
            for r_max in task.r_grid
        ]
        for f in task.f_grid
    ]
    return payload


class TestStalePerCellStore:
    """A ``--store-dir`` holding per-cell payloads from an older build
    (same task hashes, same model version) is recomputed, never
    assembled from and never a ``KeyError``."""

    def test_refresh_recomputes_stale_payloads(self, store_dir,
                                               tmp_path):
        from repro.campaign.spec import task_hash
        from repro.campaign.store import ResultStore
        from repro.perf.tensorstore import _is_columnar

        spec = materialize_spec(workloads=WORKLOADS, f_grid=F_GRID,
                                r_grid=R_GRID)
        store = ResultStore(tmp_path / "results")
        tasks = spec.tasks()
        for task in tasks:
            store.put(task_hash(task), _per_cell_payload(task))
        assert not any(
            _is_columnar(store.get(task_hash(t))) for t in tasks
        )
        statuses = []
        build_tensor_store(
            tmp_path / "refreshed", spec=spec, store=store, resume=True,
            progress=lambda outcome, done, total: statuses.append(
                outcome.status
            ),
        )
        assert statuses.count("executed") == len(tasks)
        assert _channel_digests(tmp_path / "refreshed") == (
            _channel_digests(store_dir)
        )
        assert all(_is_columnar(store.get(task_hash(t))) for t in tasks)
        assert TensorStore.load(tmp_path / "refreshed").verify()[
            "status"
        ] == "ok"
