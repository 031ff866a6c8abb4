import json
import math
import os

import numpy as np
import pytest

from fracstep import fem1d, harness, solver
from fracstep.errors import BudgetError, DomainError, NestingError
from fracstep.fracops import TemporalGrid
from fracstep.harness import (
    EXPERIMENTS,
    ConvergenceTable,
    SweepPlan,
    default_plan,
    expected_orders,
    experiment_problem,
    load_cached_reference,
    order_fit,
    run_sweep,
    space_time_error,
    store_reference,
)


class TestOrderFit:
    def test_halving_gives_order_one(self):
        assert order_fit([1.0, 0.5, 0.25]) == pytest.approx([1.0, 1.0])

    def test_quartering_gives_order_two(self):
        assert order_fit([1.0, 0.25]) == pytest.approx([2.0])

    def test_reproduces_published_table_column(self):
        # 7.56e-1 -> 4.78e-1 reads as order 0.66 in the tabulated history
        orders = order_fit([7.56e-1, 4.78e-1])
        assert round(orders[0], 2) == 0.66

    def test_rejects_bad_errors(self):
        with pytest.raises(DomainError):
            order_fit([1.0])
        with pytest.raises(DomainError):
            order_fit([1.0, 0.0])
        with pytest.raises(DomainError):
            order_fit([1.0, -0.5])
        with pytest.raises(DomainError):
            order_fit([1.0, math.nan])


class TestExpectedOrders:
    def test_experiment1_spatial_prediction(self):
        rates = expected_orders(0.2, 0.3, "general")
        assert rates["E1"][0] == pytest.approx(0.7)
        assert rates["E2"][0] == pytest.approx(1.7)

    def test_temporal_prediction_low_beta(self):
        rates = expected_orders(0.4, 0.0, "general")
        assert rates["E1"][1] == pytest.approx(0.2)
        assert rates["E2"][1] == pytest.approx(0.4)

    def test_smooth_source_rates(self):
        rates = expected_orders(0.8, 0.0, "smooth-source")
        assert rates["E2"] == (2.0, 1.0)
        assert rates["E1"][1] == pytest.approx(0.6)

    def test_uncovered_combination_raises(self):
        with pytest.raises(DomainError):
            expected_orders(0.8, 0.3, "general")  # beta <= 2 - 1/alpha
        with pytest.raises(DomainError):
            expected_orders(0.4, 0.0, "smooth-source")
        # zero initial data lifts the restriction
        rates = expected_orders(0.8, 0.3, "zero-initial")
        assert rates["E1"][0] == pytest.approx(0.7)


def _graded_grid(num_steps):
    return TemporalGrid((np.arange(num_steps + 1) / num_steps) ** 2)


def _slow_space_time_error(coarse, fine):
    """Oracle: repeat the interpolated coarse rows, dense quadratic forms per row."""
    ratio = fine.grid.num_steps // coarse.grid.num_steps
    coarse_nodes = np.arange(coarse.mesh.n_cells + 1) * coarse.mesh.h
    interpolated = np.array([
        np.interp(fine.mesh.interior_nodes, coarse_nodes, np.r_[0.0, row, 0.0])
        for row in coarse.values])
    diff = np.repeat(interpolated, ratio, axis=0) - fine.values
    mass = fem1d.assemble_mass(fine.mesh).to_dense()
    stiffness = fem1d.assemble_stiffness(fine.mesh).to_dense()
    e1_sq = e2_sq = 0.0
    for tau, row in zip(fine.grid.tau, diff):
        e1_sq += tau * (row @ stiffness @ row)
        e2_sq += tau * (row @ mass @ row)
    return math.sqrt(e1_sq), math.sqrt(e2_sq)


class TestSpaceTimeError:
    def test_self_comparison_is_zero(self):
        grid = TemporalGrid.uniform(8, 1.0)
        mesh = fem1d.Mesh1D(8)
        rng = np.random.default_rng(3)
        field = solver.SpaceTimeField(grid, mesh, rng.uniform(size=(8, 7)))
        assert space_time_error(field, field) == (0.0, 0.0)

    def test_matches_field_norms_on_single_interval(self):
        # with one time interval the space-time norms reduce to spatial ones,
        # here from the np.interp oracle, which does not use prolong_rows
        grid = TemporalGrid.uniform(1, 1.0)
        coarse_mesh = fem1d.Mesh1D(8)
        fine_mesh = fem1d.Mesh1D(32)
        rng = np.random.default_rng(5)
        coarse = solver.SpaceTimeField(grid, coarse_mesh,
                                       rng.uniform(size=(1, 7)))
        fine = solver.SpaceTimeField(grid, fine_mesh, rng.uniform(size=(1, 31)))
        e1, e2 = space_time_error(coarse, fine)
        h1, l2 = _slow_space_time_error(coarse, fine)
        assert e1 == pytest.approx(h1, rel=1e-13)
        assert e2 == pytest.approx(l2, rel=1e-13)

    def test_prolonged_injection_consistency(self):
        # prolonging the coarse solve into the fine space must not change the
        # measured distance to the fine solve
        grid = TemporalGrid.uniform(4, 1.0)
        coarse_mesh = fem1d.Mesh1D(8)
        fine_mesh = fem1d.Mesh1D(16)
        rng = np.random.default_rng(7)
        coarse = solver.SpaceTimeField(grid, coarse_mesh, rng.uniform(size=(4, 7)))
        fine = solver.SpaceTimeField(grid, fine_mesh, rng.uniform(size=(4, 15)))
        injected = solver.SpaceTimeField(
            grid, fine_mesh,
            fem1d.prolong_rows(coarse.values, coarse_mesh, fine_mesh))
        direct = space_time_error(coarse, fine)
        lifted = space_time_error(injected, fine)
        assert direct == pytest.approx(lifted, rel=1e-13)

    # 64 fine cells and 1040 fine steps leave the last chunk of the
    # difference partly filled at every time ratio (1008, 504 and 126 coarse
    # rows per chunk of 2^16 elements)
    @pytest.mark.parametrize("graded", [False, True])
    @pytest.mark.parametrize("ratio_t", [1, 2, 8])
    @pytest.mark.parametrize("ratio_h", [1, 4])
    def test_matches_slow_oracle(self, graded, ratio_t, ratio_h):
        num_fine, fine_mesh = 1040, fem1d.Mesh1D(64)
        coarse_mesh = fem1d.Mesh1D(64 // ratio_h)
        fine_grid = (_graded_grid if graded else TemporalGrid.uniform)(num_fine)
        coarse_grid = TemporalGrid(fine_grid.nodes[::ratio_t])
        rows_per_chunk = harness.ERROR_CHUNK // (ratio_t * 65)
        assert (num_fine // ratio_t) % rows_per_chunk != 0
        rng = np.random.default_rng(ratio_t + 10 * ratio_h + 100 * graded)
        coarse = solver.SpaceTimeField(
            coarse_grid, coarse_mesh,
            rng.uniform(-1.0, 1.0, size=(num_fine // ratio_t, coarse_mesh.n_interior)))
        fine = solver.SpaceTimeField(
            fine_grid, fine_mesh, rng.uniform(-1.0, 1.0, size=(num_fine, 63)))
        fast = space_time_error(coarse, fine)
        slow = _slow_space_time_error(coarse, fine)
        assert fast == pytest.approx(slow, rel=1e-13, abs=0.0)

    def test_coarse_interval_split_across_chunks(self):
        # 65 fine steps of 1025 padded nodes exceed one chunk, so each coarse
        # interval is split into parts of 33 and 32 fine steps
        fine_mesh, coarse_mesh = fem1d.Mesh1D(1024), fem1d.Mesh1D(256)
        fine_grid = _graded_grid(130)
        coarse_grid = TemporalGrid(fine_grid.nodes[::65])
        assert 65 * 1025 > harness.ERROR_CHUNK
        rng = np.random.default_rng(11)
        coarse = solver.SpaceTimeField(coarse_grid, coarse_mesh,
                                       rng.uniform(-1.0, 1.0, size=(2, 255)))
        fine = solver.SpaceTimeField(fine_grid, fine_mesh,
                                     rng.uniform(-1.0, 1.0, size=(130, 1023)))
        fast = space_time_error(coarse, fine)
        slow = _slow_space_time_error(coarse, fine)
        assert fast == pytest.approx(slow, rel=1e-13, abs=0.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="np.longdouble has no extended precision here")
    def test_smooth_difference_has_no_cancellation(self):
        # d^T K d = (2 sum d_i^2 - 2 sum d_i d_i+1) / h cancels about five
        # digits for a smooth d on 1024 cells; the first-difference form
        # must stay within rounding of an extended-precision evaluation
        mesh = fem1d.Mesh1D(1024)
        grid = _graded_grid(16)
        rng = np.random.default_rng(4)
        # values in [0.5, 1] make the float64 difference exact (Sterbenz)
        base = rng.uniform(0.5, 1.0, size=(16, 1023))
        smooth = 1e-3 * np.outer(np.arange(1, 17), np.sin(np.pi * mesh.interior_nodes))
        coarse = solver.SpaceTimeField(grid, mesh, base)
        fine = solver.SpaceTimeField(grid, mesh, base + smooth)
        e1, _ = space_time_error(coarse, fine)

        d = base.astype(np.longdouble) - fine.values.astype(np.longdouble)
        quad = 2.0 * np.sum(d * d, axis=1) - 2.0 * np.sum(d[:, 1:] * d[:, :-1], axis=1)
        exact = np.sqrt(np.sum(grid.tau.astype(np.longdouble) * quad) * 1024)
        assert abs(e1 - float(exact)) <= 1e-14 * float(exact)

    def test_non_nested_rejected(self):
        mesh = fem1d.Mesh1D(8)
        a = solver.SpaceTimeField(TemporalGrid.uniform(3, 1.0), mesh,
                                  np.zeros((3, 7)))
        b = solver.SpaceTimeField(TemporalGrid.uniform(4, 1.0), mesh,
                                  np.zeros((4, 7)))
        with pytest.raises(NestingError):
            space_time_error(a, b)


class TestSweepPlan:
    def test_non_nested_plan_rejected(self):
        with pytest.raises(NestingError):
            SweepPlan(experiment="experiment3", alpha=0.8, axis="space",
                      levels=((12, 16),), reference=(32, 16))

    def test_reference_not_finer_rejected(self):
        with pytest.raises(NestingError):
            SweepPlan(experiment="experiment3", alpha=0.8, axis="space",
                      levels=((16, 16),), reference=(16, 16 * 2))

    def test_level_equal_to_reference_allowed(self):
        plan = SweepPlan(experiment="experiment3", alpha=0.8, axis="space",
                         levels=((32, 16),), reference=(32, 16))
        table = run_sweep(plan)
        assert table.rows[0]["E1"] == 0.0
        assert table.rows[0]["E2"] == 0.0

    def test_budget_enforced(self):
        # the reference has 2^25 space-time unknowns, over the solver's bound
        plan = SweepPlan(experiment="experiment3", alpha=0.8, axis="space",
                         levels=((8, 16),), reference=(8192, 4096))
        with pytest.raises(BudgetError):
            run_sweep(plan)


class TestRunSweep:
    def test_manufactured_small_reference_sweep(self):
        plan = SweepPlan(experiment="manufactured", alpha=0.8, axis="space",
                         levels=((8, 64), (16, 64), (32, 64)),
                         reference=(128, 64))
        table = run_sweep(plan)
        e1 = [row["E1"] for row in table.rows]
        e2 = [row["E2"] for row in table.rows]
        assert all(np.diff(e1) < 0.0) and all(np.diff(e2) < 0.0)
        assert table.rows[0]["order1"] is None
        assert table.rows[-1]["order2"] == pytest.approx(2.0, abs=0.15)
        assert table.meta["max_energy_gap"] <= 1e-10

    def test_single_level_has_empty_orders(self):
        plan = SweepPlan(experiment="manufactured", alpha=0.8, axis="space",
                         levels=((8, 32),), reference=(64, 32))
        table = run_sweep(plan)
        assert table.rows[0]["order1"] is None
        assert table.rows[0]["order2"] is None

    def test_exact_mode_requires_handle(self):
        with pytest.raises(DomainError):
            run_sweep(SweepPlan(experiment="experiment3", alpha=0.8, axis="time",
                                levels=((16, 8),), reference=None,
                                error_mode="exact"))

    def test_reference_invariance_of_orders(self):
        # one more dyadic reference level shifts manufactured orders < 0.05
        base = SweepPlan(experiment="manufactured", alpha=0.8, axis="space",
                         levels=((8, 64), (16, 64), (32, 64)),
                         reference=(128, 64))
        finer = SweepPlan(experiment="manufactured", alpha=0.8, axis="space",
                          levels=((8, 64), (16, 64), (32, 64)),
                          reference=(256, 64))
        t1 = run_sweep(base)
        t2 = run_sweep(finer)
        for key in ("order1", "order2"):
            assert abs(t1.rows[-1][key] - t2.rows[-1][key]) < 0.05

    def test_experiment2_registry_smoke(self):
        plan = SweepPlan(experiment="experiment2", alpha=0.7, axis="space",
                         levels=((8, 32), (16, 32)), reference=(64, 32),
                         params={"c": 1.0})
        table = run_sweep(plan)
        assert all(row["E1"] > 0.0 for row in table.rows)


class TestExperimentRegistry:
    def test_experiment1_requires_r(self):
        with pytest.raises(DomainError):
            experiment_problem("experiment1", 0.2)

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            experiment_problem("experiment9", 0.2)

    def test_experiment_data_shapes(self):
        spec1 = experiment_problem("experiment1", 0.2, r=-0.8)
        assert spec1.initial.exponent == -0.8
        assert spec1.sources[0].temporal_exponent == -0.49
        spec2 = experiment_problem("experiment2", 0.7, c=0.0)
        assert spec2.initial is None
        spec2c = experiment_problem("experiment2", 0.7, c=1.0)
        assert spec2c.initial.exponent == -0.49
        spec3 = experiment_problem("experiment3", 0.8)
        assert spec3.initial is None
        assert spec3.sources[0].spatial_param == -0.49
        assert spec3.sources[0].temporal_exponent == -0.29

    def test_required_and_unknown_parameters(self):
        with pytest.raises(DomainError, match="mode"):
            experiment_problem("spectral_test", 0.5)
        assert experiment_problem("spectral_test", 0.5, mode=3).initial.mode == 3
        with pytest.raises(DomainError, match="sigma"):
            experiment_problem("experiment3", 0.8, sigma=0.3)


class TestCache:
    def test_roundtrip_and_mismatch(self, tmp_path):
        meta = {"format": "1", "experiment": "check", "alpha": 0.5,
                "T": 1.0, "n_cells": "8", "num_steps": "4"}
        values = np.arange(12.0).reshape(4, 3)
        store_reference(str(tmp_path), meta, values)
        loaded = load_cached_reference(str(tmp_path), meta, (4, 3))
        assert np.array_equal(loaded, values)
        other = dict(meta, alpha=0.6)
        assert load_cached_reference(str(tmp_path), other, (4, 3)) is None

    def test_corrupted_sidecar_invalidates(self, tmp_path):
        meta = {"format": "1", "experiment": "check", "alpha": 0.5,
                "T": 1.0, "n_cells": "8", "num_steps": "4"}
        values = np.zeros((4, 3))
        store_reference(str(tmp_path), meta, values)
        sidecar = next(p for p in os.listdir(tmp_path) if p.endswith(".meta"))
        with open(tmp_path / sidecar, "a") as fh:
            fh.write("tampered=yes\n")
        assert load_cached_reference(str(tmp_path), meta, (4, 3)) is None

    def test_store_leaves_only_the_entry(self, tmp_path):
        meta = {"format": "1", "experiment": "check", "alpha": 0.5,
                "T": 1.0, "n_cells": "8", "num_steps": "4"}
        store_reference(str(tmp_path), meta, np.ones((4, 3)))
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 2
        assert names[0].endswith(".bin") and names[1].endswith(".meta")
        assert names[0][:-4] == names[1][:-5]

    def test_store_failing_at_the_sidecar_is_not_served(self, tmp_path, monkeypatch):
        meta = {"format": "1", "experiment": "check", "alpha": 0.5,
                "T": 1.0, "n_cells": "8", "num_steps": "4"}
        real_replace = os.replace

        def replace(src, dst):
            if dst.endswith(".meta"):
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            store_reference(str(tmp_path), meta, np.ones((4, 3)))
        monkeypatch.undo()
        assert load_cached_reference(str(tmp_path), meta, (4, 3)) is None
        assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))

    def test_sweep_uses_cache(self, tmp_path):
        plan = SweepPlan(experiment="manufactured", alpha=0.8, axis="space",
                         levels=((8, 32),), reference=(64, 32))
        first = run_sweep(plan, cache_dir=str(tmp_path))
        assert any(p.endswith(".bin") for p in os.listdir(tmp_path))
        second = run_sweep(plan, cache_dir=str(tmp_path))
        assert first.rows[0]["E1"] == second.rows[0]["E1"]
        assert first.rows[0]["E2"] == second.rows[0]["E2"]

    @pytest.mark.parametrize("old_format", ["1", "2", "3", "4"])
    def test_entry_from_older_numerics_not_served(self, tmp_path, old_format):
        # the entry an older format wrote for this plan's reference, filled with junk
        old_meta = {"format": old_format, "experiment": "manufactured", "alpha": 0.8,
                    "T": 1.0, "n_cells": "64", "num_steps": "32"}
        store_reference(str(tmp_path / "old"), old_meta, np.full((32, 63), 1e3))
        plan = SweepPlan(experiment="manufactured", alpha=0.8, axis="space",
                         levels=((8, 32),), reference=(64, 32))
        served = run_sweep(plan, cache_dir=str(tmp_path / "old"))
        fresh = run_sweep(plan, cache_dir=str(tmp_path / "fresh"))
        assert served.rows == fresh.rows


class TestTableFormats:
    def _small_table(self):
        return ConvergenceTable(
            rows=[{"h": 0.125, "tau": 0.25, "E1": 0.5, "order1": None,
                   "E2": 0.25, "order2": None},
                  {"h": 0.0625, "tau": 0.25, "E1": 0.25, "order1": 1.0,
                   "E2": 0.0625, "order2": 2.0}],
            meta={"alpha": 0.8, "experiment": "manufactured", "params": {},
                  "h_ref": 0.001953125, "tau_ref": 0.25, "axis": "space",
                  "error_mode": "reference", "max_energy_gap": 1e-14,
                  "runtime_s": 0.1})

    def test_csv_header_and_empty_orders(self):
        text = self._small_table().to_csv_text()
        lines = text.splitlines()
        assert lines[0] == "h,tau,E1,order1,E2,order2"
        assert lines[1].split(",")[3] == ""  # first-row orders are absent
        assert lines[2].split(",")[3] == "1"

    def test_csv_roundtrips_17_digits(self):
        value = 1.0 / 3.0 + 1e-16
        table = self._small_table()
        table.rows[0]["E1"] = value
        parsed = float(table.to_csv_text().splitlines()[1].split(",")[2])
        assert parsed == value

    def test_json_meta_keys_stable(self):
        obj = self._small_table().to_json_obj()
        assert set(obj) == {"meta", "rows"}
        assert set(obj["meta"]) >= {"alpha", "experiment", "params", "h_ref",
                                    "tau_ref", "runtime_s"}
        json.dumps(obj)  # must be serializable


class TestDefaultPlans:
    def test_all_registered_plans_validate(self):
        for experiment, entry in EXPERIMENTS.items():
            for axis in entry.plans:
                plan = default_plan(experiment, axis)
                assert plan.levels
                # the plan's data parameters are the experiment's own
                assert set(plan.params) <= set(entry.params)

    def test_overrides(self):
        plan = default_plan("experiment1", "space", alpha=0.4, nx=16, count=2)
        assert plan.alpha == 0.4
        assert plan.levels == ((16, 4096), (32, 4096))

    def test_unknown_combination(self):
        with pytest.raises(DomainError):
            default_plan("spectral_test", "space")
