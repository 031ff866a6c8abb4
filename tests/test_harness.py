import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import zlib
from fractions import Fraction

import numpy as np
import pytest

from fracstep import fem1d, harness, solver
from fracstep.errors import CHUNK, BudgetError, DomainError, NestingError, SolverError
from fracstep.fracops import TemporalGrid
from fracstep.harness import (
    EXPERIMENTS,
    BlockMoments,
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


def _moments(field):
    return BlockMoments.of_values(field.grid, field.mesh, field.values)


def _nested_pair(num_fine, fine_cells, ratio_t, ratio_h, graded, seed):
    """Random coarse and fine fields on nested grids and meshes."""
    fine_mesh = fem1d.Mesh1D(fine_cells)
    coarse_mesh = fem1d.Mesh1D(fine_cells // ratio_h)
    fine_grid = (_graded_grid if graded else TemporalGrid.uniform)(num_fine)
    coarse_grid = TemporalGrid(fine_grid.nodes[::ratio_t])
    rng = np.random.default_rng(seed)
    coarse = solver.SpaceTimeField(
        coarse_grid, coarse_mesh,
        rng.uniform(-1.0, 1.0, size=(num_fine // ratio_t, coarse_mesh.n_interior)))
    fine = solver.SpaceTimeField(
        fine_grid, fine_mesh, rng.uniform(-1.0, 1.0, size=(num_fine, fine_cells - 1)))
    return coarse, fine


# the small time sweep of the benchmark's self-check: 16 cells x {4, 8, 16}
# steps against 16 cells x 64 steps
TINY_PLAN = dict(experiment="experiment3", axis="time", alpha=0.8, nx=16, nt=4,
                 count=3, reference=(16, 64))
# two space levels whose finest has the reference's 16 steps
TINY_SPACE_PLAN = dict(experiment="experiment3", axis="space", alpha=0.8, nx=4, nt=16,
                       count=2, reference=(16, 16))


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
        rows_per_chunk = CHUNK // (ratio_t * 65)
        assert (1040 // ratio_t) % rows_per_chunk != 0
        coarse, fine = _nested_pair(1040, 64, ratio_t, ratio_h, graded,
                                    seed=ratio_t + 10 * ratio_h + 100 * graded)
        fast = space_time_error(coarse, fine)
        slow = _slow_space_time_error(coarse, fine)
        assert fast == pytest.approx(slow, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("graded", [False, True])
    @pytest.mark.parametrize("ratio_t", [1, 2, 8])
    @pytest.mark.parametrize("ratio_h", [1, 4])
    def test_moments_coarsened_in_two_steps_match_one_step(self, graded, ratio_t, ratio_h):
        # 1 -> 2 -> 8 against 1 -> 8 (and 1 -> 2 -> 2, 1 -> 1 -> 1): merging
        # moments is exact, so both give the fine field's errors
        coarse, fine = _nested_pair(1040, 64, ratio_t, ratio_h, graded,
                                    seed=ratio_t + 10 * ratio_h + 100 * graded)
        middle = TemporalGrid(fine.grid.nodes[::min(2, ratio_t)])
        one_step = _moments(fine).coarsen(coarse.grid)
        two_steps = _moments(fine).coarsen(middle).coarsen(coarse.grid)
        slow = _slow_space_time_error(coarse, fine)
        one = space_time_error(coarse, one_step)
        two = space_time_error(coarse, two_steps)
        assert one == pytest.approx(slow, rel=1e-13, abs=0.0)
        assert two == pytest.approx(slow, rel=1e-13, abs=0.0)
        assert two == pytest.approx(one, rel=1e-13, abs=0.0)
        if ratio_t > 1:
            np.testing.assert_allclose(two_steps.means + two_steps.lows,
                                       one_step.means + one_step.lows, rtol=0.0, atol=1e-15)

    def test_non_dyadic_ratio(self):
        # 1040 = 5 * 208: ratio 5 directly, through moments, and 10 as 1 -> 5 -> 10
        coarse, fine = _nested_pair(1040, 64, 5, 4, True, seed=21)
        slow = _slow_space_time_error(coarse, fine)
        moments = _moments(fine).coarsen(coarse.grid)
        assert space_time_error(coarse, fine) == pytest.approx(slow, rel=1e-13, abs=0.0)
        assert space_time_error(coarse, moments) == pytest.approx(slow, rel=1e-13, abs=0.0)
        coarser, _ = _nested_pair(1040, 64, 10, 4, True, seed=22)
        slow = _slow_space_time_error(coarser, fine)
        chained = moments.coarsen(coarser.grid)
        assert space_time_error(coarser, chained) == pytest.approx(slow, rel=1e-13, abs=0.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="np.longdouble has no extended precision here")
    @pytest.mark.parametrize("graded", [False, True])
    def test_near_reference_level_against_longdouble(self, graded):
        # a level at E/|f| ~ 1e-6 with ratio 16: a float64 mean of the block
        # would move E by up to about 1e-12; the mean's low part keeps it
        # within rounding of an extended-precision evaluation
        mesh, ratio, num_coarse = fem1d.Mesh1D(64), 16, 64
        fine_grid = (_graded_grid if graded else TemporalGrid.uniform)(ratio * num_coarse)
        coarse_grid = TemporalGrid(fine_grid.nodes[::ratio])
        rng = np.random.default_rng(31 + graded)
        base = rng.uniform(0.5, 1.0, size=(num_coarse, 63))
        fine_values = np.repeat(base, ratio, axis=0) \
            + 1e-6 * rng.uniform(-1.0, 1.0, size=(ratio * num_coarse, 63))
        coarse = solver.SpaceTimeField(
            coarse_grid, mesh, base + 1e-6 * rng.uniform(-1.0, 1.0, size=base.shape))
        fine = solver.SpaceTimeField(fine_grid, mesh, fine_values)
        chained = _moments(fine)
        for step in (2, 4, 8, 16):
            chained = chained.coarsen(TemporalGrid(fine_grid.nodes[::step]))

        d = np.zeros((ratio * num_coarse, 65), dtype=np.longdouble)
        d[:, 1:-1] = (np.repeat(coarse.values.astype(np.longdouble), ratio, axis=0)
                      - fine_values.astype(np.longdouble))
        s0 = np.sum(d * d, axis=1)
        g = np.sum(np.diff(d, axis=1) ** 2, axis=1)
        tau, h = fine_grid.tau.astype(np.longdouble), np.longdouble(mesh.h)
        exact = (float(np.sqrt(np.sum(tau * g) / h)),
                 float(np.sqrt(h * np.sum(tau * (s0 - g / 6)))))
        assert exact[1] / np.sqrt(np.mean(fine_values ** 2)) < 2e-6
        for reference in (fine, _moments(fine).coarsen(coarse_grid), chained):
            assert space_time_error(coarse, reference) == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("graded", [False, True])
    def test_scatter_at_rounding_level_against_fractions(self, graded):
        # rows a few ulps apart over each interval: the naive mean's rounding
        # error is as large as the scatter itself, so the scatter is exact
        # only with coarsen's recentring term T_K Q(delta_K) taken off
        mesh, ratio, num_coarse = fem1d.Mesh1D(8), 8, 4
        fine_grid = (_graded_grid if graded else TemporalGrid.uniform)(ratio * num_coarse)
        rng = np.random.default_rng(41 + graded)
        values = np.repeat(rng.uniform(0.5, 1.0, size=(num_coarse, 7)), ratio, axis=0)
        values += np.spacing(values) * rng.integers(-3, 4, size=values.shape)
        tau = [Fraction(t) for t in fine_grid.tau]
        mass, stiff = [], []
        for K in range(num_coarse):  # two passes: the exact mean, then the scatter
            rows = range(K * ratio, (K + 1) * ratio)
            total = sum(tau[k] for k in rows)
            mean = [sum(tau[k] * Fraction(values[k, i]) for k in rows) / total
                    for i in range(7)]
            mass.append(Fraction(0))
            stiff.append(Fraction(0))
            for k in rows:
                d = [0, *(Fraction(values[k, i]) - mean[i] for i in range(7)), 0]
                s0 = sum(x * x for x in d)
                g = sum((d[i + 1] - d[i]) ** 2 for i in range(8))
                mass[K] += tau[k] * (s0 - g / 6)
                stiff[K] += tau[k] * g
        coarse_grid = TemporalGrid(fine_grid.nodes[::ratio])
        one_step = BlockMoments.of_values(fine_grid, mesh, values).coarsen(coarse_grid)
        two_steps = BlockMoments.of_values(fine_grid, mesh, values).coarsen(
            TemporalGrid(fine_grid.nodes[::2])).coarsen(coarse_grid)
        for moments in (one_step, two_steps):
            np.testing.assert_allclose(moments.mass, np.array(mass, dtype=float),
                                       rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(moments.stiff, np.array(stiff, dtype=float),
                                       rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("num_fine", [2048, 16384])
    def test_traced_peak_does_not_grow_with_the_reference(self, num_fine):
        # the reference's rows are differenced in CHUNK-sized buffers: no
        # temporary of the reference's size, which at 16384 x 31 is 4 MB
        mesh = fem1d.Mesh1D(32)
        fine_grid = TemporalGrid.uniform(num_fine)
        rng = np.random.default_rng(num_fine)
        fine = solver.SpaceTimeField(fine_grid, mesh, rng.uniform(size=(num_fine, 31)))
        coarse = solver.SpaceTimeField(TemporalGrid.uniform(16), mesh,
                                       rng.uniform(size=(16, 31)))
        tracemalloc.start()
        try:
            space_time_error(coarse, fine)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * CHUNK * 8

    def test_coarse_interval_split_across_chunks(self):
        # 65 fine steps of 1025 padded nodes exceed one chunk, so each coarse
        # interval is split into parts of 33 and 32 fine steps
        fine_mesh, coarse_mesh = fem1d.Mesh1D(1024), fem1d.Mesh1D(256)
        fine_grid = _graded_grid(130)
        coarse_grid = TemporalGrid(fine_grid.nodes[::65])
        assert 65 * 1025 > CHUNK
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

    def test_nodes_not_shared_rejected(self):
        # the step counts nest, the nodes do not: T = 1 against T = 1 + 1e-13
        mesh = fem1d.Mesh1D(4)
        fine = BlockMoments.of_values(TemporalGrid.uniform(8, 1.0), mesh, np.zeros((8, 3)))
        assert fine.ratio(TemporalGrid.uniform(4, 1.0)) == 2
        assert fine.ratio(TemporalGrid(fine.grid.nodes[::2] * (1.0 + 1e-15))) == 2
        with pytest.raises(NestingError, match="share"):
            fine.ratio(TemporalGrid.uniform(4, 1.0 + 1e-13))
        with pytest.raises(NestingError, match="share"):
            fine.ratio(TemporalGrid((np.arange(5) / 4) ** 2))


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
                                levels=((16, 8),), reference=None))

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

    def test_rows_match_per_level_errors(self):
        plan = default_plan(**TINY_PLAN)
        table = run_sweep(plan)
        spec = experiment_problem(plan.experiment, plan.alpha)
        reference, _ = solver.solve(spec, TemporalGrid.uniform(64), fem1d.Mesh1D(16))
        for row, (nx, nt) in zip(table.rows, plan.levels):
            level, _ = solver.solve(spec, TemporalGrid.uniform(nt), fem1d.Mesh1D(nx))
            e1, e2 = space_time_error(level, reference)
            assert row["E1"] == pytest.approx(e1, rel=1e-13, abs=0.0)
            assert row["E2"] == pytest.approx(e2, rel=1e-13, abs=0.0)

    def test_reference_rows_are_read_once(self, monkeypatch):
        # the reference is coarsened level by level, so the rows formed grow
        # with the levels, not with count * J_ref (192 rows here)
        counted = []
        band_sums = fem1d.band_sums

        def counting(padded, diffs):
            counted.append(padded.size // padded.shape[-1])
            return band_sums(padded, diffs)

        monkeypatch.setattr(fem1d, "band_sums", counting)
        plan = default_plan(**TINY_PLAN)
        run_sweep(plan)
        ref_steps = plan.reference[1]
        assert sum(counted) <= 2 * ref_steps + sum(nt for _, nt in plan.levels)

    def test_over_budget_finest_level_fails_before_any_solve(self, monkeypatch):
        # 16 x 32 = 512 unknowns exceed a budget of 256; the three coarser
        # levels (up to 16 x 16) are within it
        monkeypatch.setattr(solver, "BUDGET", 256)
        returned = []
        real = solver.solve

        def counting(spec, grid, mesh, *args, **kwargs):
            result = real(spec, grid, mesh, *args, **kwargs)
            returned.append(grid.num_steps)
            return result

        monkeypatch.setattr(solver, "solve", counting)
        plan = default_plan("manufactured", "time", nx=16, nt=4, count=4)
        with pytest.raises(BudgetError):
            run_sweep(plan)
        assert returned == []

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


def _counted_solve_steps(monkeypatch) -> list:
    """Record the step count of every ``solver.solve`` call from here on."""
    steps = []
    real = solver.solve

    def counting(spec, grid, mesh, *args, **kwargs):
        steps.append(grid.num_steps)
        return real(spec, grid, mesh, *args, **kwargs)

    monkeypatch.setattr(solver, "solve", counting)
    return steps


def _in_subprocess(package_root, *args) -> bytes:
    """The stdout of ``python *args`` importing ``fracstep`` from ``package_root``."""
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _entry_parts(path):
    """The header (key lines, then the crc32 line) and the payload of an entry."""
    raw = path.read_bytes()
    end = raw.index(b"\n", raw.index(b"crc32=")) + 1
    return raw[:end], raw[end:]


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
        (entry,) = tmp_path.iterdir()
        raw = entry.read_bytes()
        tampered = raw.replace(b"experiment=check\n", b"experiment=chuck\n")
        assert tampered != raw
        entry.write_bytes(tampered)
        assert load_cached_reference(str(tmp_path), meta, (4, 3)) is None

    def test_store_leaves_only_the_entry(self, tmp_path):
        meta = {"format": "1", "experiment": "check", "alpha": 0.5,
                "T": 1.0, "n_cells": "8", "num_steps": "4"}
        store_reference(str(tmp_path), meta, np.ones((4, 3)))
        (name,) = os.listdir(tmp_path)
        assert name.startswith("ref_") and name.endswith(".bin")

    def test_store_failing_at_the_sidecar_is_not_served(self, tmp_path, monkeypatch):
        meta = {"format": "1", "experiment": "check", "alpha": 0.5,
                "T": 1.0, "n_cells": "8", "num_steps": "4"}
        real_replace = os.replace

        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            store_reference(str(tmp_path), meta, np.ones((4, 3)))
        monkeypatch.undo()
        assert load_cached_reference(str(tmp_path), meta, (4, 3)) is None
        assert os.listdir(tmp_path) == []

    def test_sweep_uses_cache(self, tmp_path):
        plan = SweepPlan(experiment="manufactured", alpha=0.8, axis="space",
                         levels=((8, 32),), reference=(64, 32))
        first = run_sweep(plan, cache_dir=str(tmp_path))
        assert any(p.endswith(".bin") for p in os.listdir(tmp_path))
        second = run_sweep(plan, cache_dir=str(tmp_path))
        assert first.rows[0]["E1"] == second.rows[0]["E1"]
        assert first.rows[0]["E2"] == second.rows[0]["E2"]

    def test_entry_holds_the_finest_moments(self, tmp_path):
        # finest level 16 steps, 15 interior nodes: means, lows, mass and
        # stiff are 16 * (2 * 15 + 2) values; the weights are the grid's steps
        plan = default_plan(**TINY_PLAN)
        run_sweep(plan, cache_dir=str(tmp_path))
        (entry,) = tmp_path.iterdir()
        header, payload = _entry_parts(entry)
        stored = np.frombuffer(payload, dtype="<f8")
        assert stored.size == 16 * (2 * 15 + 2)
        spec = experiment_problem(plan.experiment, plan.alpha)
        field, _ = solver.solve(spec, TemporalGrid.uniform(64), fem1d.Mesh1D(16))
        expected = BlockMoments.of_values(field.grid, field.mesh, field.values).coarsen(
            TemporalGrid.uniform(16))
        parts = np.split(stored, np.cumsum([16 * 15, 16 * 15, 16]))
        for part, array in zip(parts, (expected.means, expected.lows, expected.mass,
                                       expected.stiff)):
            assert np.array_equal(part, array.ravel())
        lines = header.decode().splitlines()
        assert "moment_steps=16" in lines
        assert lines[-1] == f"crc32={zlib.crc32(stored)}"

    def test_space_entry_is_the_reference_field(self, tmp_path):
        plan = default_plan(**TINY_SPACE_PLAN)
        run_sweep(plan, cache_dir=str(tmp_path))
        (entry,) = tmp_path.iterdir()
        _, payload = _entry_parts(entry)
        spec = experiment_problem(plan.experiment, plan.alpha)
        field, _ = solver.solve(spec, TemporalGrid.uniform(16), fem1d.Mesh1D(16))
        assert field.values.shape == (16, 15)
        assert payload == np.ascontiguousarray(field.values, dtype="<f8").tobytes()

    def test_space_cold_warm_and_uncached_csvs_agree(self, tmp_path, monkeypatch):
        plan = default_plan(**TINY_SPACE_PLAN)
        uncached = run_sweep(plan).to_csv_text()
        cold = run_sweep(plan, cache_dir=str(tmp_path)).to_csv_text()
        steps = _counted_solve_steps(monkeypatch)
        warm = run_sweep(plan, cache_dir=str(tmp_path)).to_csv_text()
        assert len(steps) == 2  # the two levels; the reference was read, not solved
        assert cold == warm == uncached

    def test_sweep_reads_no_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACSTEP_CACHE_DIR", str(tmp_path))
        run_sweep(default_plan(**TINY_PLAN))
        assert list(tmp_path.iterdir()) == []

    def test_cold_warm_and_uncached_csvs_agree(self, tmp_path, monkeypatch):
        plan = default_plan(**TINY_PLAN)
        uncached = run_sweep(plan).to_csv_text()
        cold = run_sweep(plan, cache_dir=str(tmp_path)).to_csv_text()
        steps = _counted_solve_steps(monkeypatch)
        warm = run_sweep(plan, cache_dir=str(tmp_path)).to_csv_text()
        assert steps == [16, 8, 4]  # the reference was read, not solved
        assert cold == warm == uncached

    def test_other_finest_level_misses_and_recomputes(self, tmp_path, monkeypatch):
        plan = default_plan(**TINY_PLAN)
        run_sweep(plan, cache_dir=str(tmp_path))
        coarser = default_plan(**dict(TINY_PLAN, count=2))  # finest level 8 steps
        steps = _counted_solve_steps(monkeypatch)
        table = run_sweep(coarser, cache_dir=str(tmp_path))
        assert 64 in steps
        assert len(list(tmp_path.glob("*.bin"))) == 2
        assert table.to_csv_text() == run_sweep(coarser).to_csv_text()

    def test_non_finite_payload_is_a_miss(self, tmp_path):
        plan = default_plan(**TINY_PLAN)
        first = run_sweep(plan, cache_dir=str(tmp_path))
        (entry,) = tmp_path.iterdir()
        stored = entry.read_bytes()
        header, payload = _entry_parts(entry)
        meta = harness._reference_meta(plan)
        size = len(payload) // 8
        assert load_cached_reference(str(tmp_path), meta, (size,)) is not None
        corrupt = np.frombuffer(payload, dtype="<f8").copy()
        corrupt[100] = np.nan
        # a matching checksum, so that only the finiteness check can refuse it
        key = header[:header.rindex(b"crc32=")]
        entry.write_bytes(key + f"crc32={zlib.crc32(corrupt)}\n".encode() + corrupt.tobytes())
        assert load_cached_reference(str(tmp_path), meta, (size,)) is None
        # recomputed and stored again, instead of a DomainError
        second = run_sweep(plan, cache_dir=str(tmp_path))
        assert second.rows == first.rows
        assert entry.read_bytes() == stored

    def test_altered_finite_value_fails_the_checksum(self, tmp_path):
        plan = default_plan(**TINY_PLAN)
        first = run_sweep(plan, cache_dir=str(tmp_path))
        (entry,) = tmp_path.iterdir()
        stored = entry.read_bytes()
        header, payload = _entry_parts(entry)
        altered = np.frombuffer(payload, dtype="<f8").copy()
        altered[100] += 1.0
        entry.write_bytes(header + altered.tobytes())
        meta = harness._reference_meta(plan)
        assert load_cached_reference(str(tmp_path), meta, (altered.size,)) is None
        second = run_sweep(plan, cache_dir=str(tmp_path))
        assert second.rows == first.rows
        assert entry.read_bytes() == stored

    @pytest.mark.parametrize("old_format", ["1", "2", "3", "4", "5", "6", "7"])
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

    def test_format_7_pair_not_served(self, tmp_path):
        # format 7 kept an entry in two files: the payload in ref_<digest>.bin
        # and the key with the payload's crc32 in ref_<digest>.meta; here the
        # pair for this plan holds a finite junk payload with a valid checksum
        plan = default_plan(**TINY_PLAN)
        key = harness._cache_key(dict(harness._reference_meta(plan), format="7", T=1.0))
        base = tmp_path / f"ref_{hashlib.sha256(key).hexdigest()[:24]}"
        junk = np.full(16 * (2 * 15 + 3), 1e3)
        junk.tofile(base.with_suffix(".bin"))
        base.with_suffix(".meta").write_bytes(key + f"crc32={zlib.crc32(junk)}\n".encode())
        cold = run_sweep(plan).to_csv_text()
        assert run_sweep(plan, cache_dir=str(tmp_path)).to_csv_text() == cold
        assert len(list(tmp_path.iterdir())) == 3

    def test_format_8_entry_not_served(self, tmp_path):
        # format 8 stored the interval weights ahead of the moments, 16 * (2 *
        # 15 + 3) values; here this plan's entry in that layout holds finite
        # junk with a valid checksum
        plan = default_plan(**TINY_PLAN)
        old_meta = dict(harness._reference_meta(plan), format="8")
        store_reference(str(tmp_path), old_meta, np.full(16 * (2 * 15 + 3), 1e3))
        (old_entry,) = tmp_path.iterdir()
        uncached = run_sweep(plan).to_csv_text()
        assert run_sweep(plan, cache_dir=str(tmp_path)).to_csv_text() == uncached
        (new_entry,) = set(tmp_path.iterdir()) - {old_entry}
        header = _entry_parts(new_entry)[0].decode()
        assert f"format={harness._source_digest()}" in header.splitlines()

    def test_entry_under_another_digest_not_served(self, tmp_path):
        # this plan's entry as another source would have keyed it: finite
        # junk with a valid checksum
        plan = default_plan(**TINY_PLAN)
        other_meta = dict(harness._reference_meta(plan), format="0" * 64)
        store_reference(str(tmp_path), other_meta, np.full(16 * (2 * 15 + 2), 1e3))
        uncached = run_sweep(plan).to_csv_text()
        assert run_sweep(plan, cache_dir=str(tmp_path)).to_csv_text() == uncached
        assert len(list(tmp_path.glob("ref_*.bin"))) == 2

    def test_source_is_read_once_and_only_for_a_cache(self, tmp_path):
        # in a fresh process, an audit hook lists every numerics source file
        # opened: none by an uncached sweep, each one once over two cached ones
        script = "\n".join([
            "import os, sys",
            "from fracstep import harness",
            "package = os.path.dirname(harness.__file__)",
            "opened = []",
            "sys.addaudithook(lambda event, args: event == 'open'"
            " and str(args[0]).startswith(package) and str(args[0]).endswith('.py')"
            " and opened.append(os.path.basename(args[0])))",
            f"plan = harness.default_plan(**{TINY_PLAN!r})",
            "harness.run_sweep(plan)",
            "print(opened)",
            "harness.run_sweep(plan, cache_dir=sys.argv[1])",
            "harness.run_sweep(plan, cache_dir=sys.argv[1])",
            "print(opened)",
        ])
        out = _in_subprocess(os.path.dirname(os.path.dirname(harness.__file__)),
                             "-c", script, str(tmp_path))
        modules = ["errors", "gammafn", "fem1d", "fracops", "assembly", "solver", "harness"]
        assert out.decode().splitlines() == ["[]", repr([f"{m}.py" for m in modules])]

    def test_source_edit_misses_and_a_moved_copy_hits(self, tmp_path):
        # the key depends on the source bytes, not on where they lie
        package = os.path.dirname(harness.__file__)
        cache = tmp_path / "cache"
        sweep = ("-m", "fracstep", "sweep", "--experiment", "exp3", "--axis", "time",
                 "--alpha", "0.8", "--nx", "16", "--nt", "4", "--levels", "3",
                 "--ref-nx", "16", "--ref-nt", "64", "--cache-dir", str(cache))
        cold = _in_subprocess(os.path.dirname(package), *sweep)
        (entry,) = cache.iterdir()
        written = entry.stat().st_mtime_ns
        for copy in ("moved", "edited"):
            shutil.copytree(package, tmp_path / copy / "fracstep",
                            ignore=shutil.ignore_patterns("__pycache__"))
        assert _in_subprocess(tmp_path / "moved", *sweep) == cold
        assert list(cache.iterdir()) == [entry]
        assert entry.stat().st_mtime_ns == written
        solver_source = tmp_path / "edited" / "fracstep" / "solver.py"
        source = solver_source.read_bytes()
        assert source.startswith(b'"""Causal ')  # one byte of the module docstring
        solver_source.write_bytes(b'"""causal ' + source[len(b'"""Causal '):])
        assert _in_subprocess(tmp_path / "edited", *sweep) == cold
        assert len(list(cache.glob("ref_*.bin"))) == 2
        assert entry.stat().st_mtime_ns == written


class TestClosedGates:
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_energy_gap_at_any_level_shows(self, monkeypatch, position):
        plan = SweepPlan(experiment="manufactured", alpha=0.8, axis="time",
                         levels=((4, 4), (4, 8), (4, 16)), reference=None)
        real = solver.solve
        calls = []

        def solve(*args, **kwargs):
            field, report = real(*args, **kwargs)
            if len(calls) == position:
                report = dataclasses.replace(report, energy_gap=math.nan)
            calls.append(position)
            return field, report

        monkeypatch.setattr(solver, "solve", solve)
        assert math.isnan(run_sweep(plan).meta["max_energy_gap"])

    @pytest.mark.parametrize("errors", [(math.inf, 1.0), (1.0, math.nan)])
    def test_non_finite_level_error_raises(self, monkeypatch, errors):
        monkeypatch.setattr(harness, "space_time_error", lambda *args: errors)
        with pytest.raises(SolverError, match="not finite"):
            run_sweep(default_plan(**TINY_PLAN))


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

    def test_too_many_levels_fail_before_any_is_built(self):
        with pytest.raises(BudgetError, match="1000000 dyadic levels"):
            default_plan("manufactured", "time", nx=4, nt=4, count=10 ** 6)
