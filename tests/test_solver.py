import tracemalloc

import numpy as np
import pytest

from fracstep import assembly, fem1d, fracops, harness, properties, solver
from fracstep.assembly import InitialData, ProblemSpec, SourceTerm
from fracstep.errors import CHUNK, BudgetError, DomainError, SolverError
from fracstep.fracops import TemporalGrid, temporal_weights
from fracstep.gammafn import gamma_fn


def experiment1_spec(alpha):
    return ProblemSpec(
        alpha=alpha,
        initial=InitialData(kind="power", scale=1.0, exponent=-0.8),
        sources=(SourceTerm("power", -0.8, -0.49),))


class TestSolve:
    def test_zero_data_zero_solution(self):
        grid = TemporalGrid.uniform(16, 1.0)
        mesh = fem1d.Mesh1D(8)
        field, report = solver.solve(ProblemSpec(alpha=0.5), grid, mesh)
        assert np.all(field.values == 0.0)
        assert report.residual_norms.shape == (16,)

    def test_residuals_within_tolerance(self):
        grid = TemporalGrid.uniform(64, 1.0)
        mesh = fem1d.Mesh1D(64)
        field, report = solver.solve(experiment1_spec(0.3), grid, mesh)
        assert np.max(report.residual_norms) <= 1e-12

    def test_horizon_set_by_grid(self):
        # the spec carries no horizon: T = 2 comes from the grid alone
        grid = TemporalGrid.uniform(12, 2.0)
        mesh = fem1d.Mesh1D(8)
        spec = experiment1_spec(0.5)
        marched, _ = solver.solve(spec, grid, mesh)
        loads = assembly.assemble_load(spec, grid, mesh)
        dense = properties.dense_block_solve(grid, mesh, 0.5, loads)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(marched.values - dense)) / scale <= 1e-10

    def test_over_budget_rejected_before_allocating(self):
        grid = TemporalGrid.uniform(4096, 1.0)
        mesh = fem1d.Mesh1D(2 * solver.BUDGET // 4096)
        with pytest.raises(BudgetError, match="budget"):
            solver.solve(ProblemSpec(alpha=0.5), grid, mesh)

    def test_causality_bit_identical(self):
        rng = np.random.default_rng(9)
        grid = TemporalGrid.uniform(12, 1.0)
        mesh = fem1d.Mesh1D(8)
        spec = ProblemSpec(alpha=0.4)
        loads = rng.uniform(-1.0, 1.0, size=(12, 7))
        base, _ = solver.solve(spec, grid, mesh, loads=loads)
        bumped = loads.copy()
        bumped[7:] *= -2.5
        other, _ = solver.solve(spec, grid, mesh, loads=bumped)
        assert np.array_equal(base.values[:7], other.values[:7])
        assert not np.array_equal(base.values[7:], other.values[7:])

    # J = 300 splits into leaves of 37 or 38 steps, with batched history
    # products across every merge boundary

    def test_causality_bit_identical_across_merges(self):
        rng = np.random.default_rng(10)
        grid = TemporalGrid.uniform(300, 1.0)
        mesh = fem1d.Mesh1D(4)
        spec = ProblemSpec(alpha=0.7)
        loads = rng.uniform(-1.0, 1.0, size=(300, 3))
        base, _ = solver.solve(spec, grid, mesh, loads=loads)
        bumped = loads.copy()
        bumped[200:] += rng.uniform(0.5, 1.0, size=(100, 3))
        other, _ = solver.solve(spec, grid, mesh, loads=bumped)
        assert np.array_equal(base.values[:200], other.values[:200])
        assert not np.array_equal(base.values[200:], other.values[200:])

    def test_zero_data_zero_solution_across_merges(self):
        grid = TemporalGrid.uniform(300, 1.0)
        field, _ = solver.solve(ProblemSpec(alpha=0.5), grid,
                                fem1d.Mesh1D(4))
        assert np.all(field.values == 0.0)


    # the checks run once per leaf; the first failing step, here one past
    # step 64 with later steps of its leaf failing too, must be the one named
    def test_first_failing_residual_is_named(self, monkeypatch):
        rng = np.random.default_rng(29)
        J = 200
        grid = TemporalGrid.uniform(J, 1.0)
        mesh = fem1d.Mesh1D(16)
        spec = ProblemSpec(alpha=0.6)
        loads = rng.uniform(-1.0, 1.0, size=(J, 15))
        _, report = solver.solve(spec, grid, mesh, loads=loads)
        res = report.residual_norms
        step = next(k for k in range(solver.HISTORY_BLOCK + 1, J)
                    if res[k] > np.max(res[:k]))
        tol = float(np.max(res[:step]))
        leaf_end = next(hi for lo, mid, hi in solver._causal_blocks(0, J)
                        if mid == hi and lo <= step < hi)
        assert np.count_nonzero(res[step:leaf_end] > tol) >= 2
        monkeypatch.setattr(solver, "RESIDUAL_TOL", tol)
        with pytest.raises(SolverError, match=rf"^step {step} residual"):
            solver.solve(spec, grid, mesh, loads=loads)


class TestHistorySum:
    def test_first_step_is_zero(self):
        grid = TemporalGrid.uniform(8, 1.0)
        weights = temporal_weights(grid, 0.5)
        values = np.ones((8, 7))
        assert np.all(weights.history_dot(values, 0) == 0.0)

    def test_constant_field_telescopes(self):
        grid = TemporalGrid.uniform(8, 1.0)
        weights = temporal_weights(grid, 0.3)
        values = np.tile(np.arange(1.0, 8.0), (8, 1))
        k = 5
        hist = weights.history_dot(values, k)
        factor = (assembly.initial_time_factors(grid, 0.3)[k]
                  - weights.dense()[k, k])
        assert np.allclose(hist, factor * values[0], rtol=1e-12)

    def test_matches_dense_block_product(self):
        rng = np.random.default_rng(31)
        grid = TemporalGrid.uniform(16, 1.0)
        weights = temporal_weights(grid, 0.6)
        values = rng.uniform(-1.0, 1.0, size=(16, 7))
        dense = weights.dense()
        for k in (1, 7, 15):
            expected = dense[k, :k] @ values[:k]
            assert np.allclose(weights.history_dot(values, k),
                               expected, rtol=1e-12, atol=1e-15)


class TestScalar:
    def test_one_weight_row_per_step(self, monkeypatch):
        calls = []
        block = fracops.TemporalWeightMatrix.block

        def spy(self, rows, cols):
            calls.append((rows, cols))
            return block(self, rows, cols)

        monkeypatch.setattr(fracops.TemporalWeightMatrix, "block", spy)
        grid = TemporalGrid.uniform(12, 1.0)
        y = properties.scalar_solve(0.5, 2.0, grid, y0=1.0)
        assert calls == [(slice(k, k + 1), slice(0, k + 1)) for k in range(12)]
        monkeypatch.undo()
        dense = temporal_weights(grid, 0.5).dense()
        rhs = assembly.initial_time_factors(grid, 0.5)
        residual = dense @ y + grid.tau * 2.0 * y - rhs
        assert np.max(np.abs(residual)) <= 1e-13 * np.max(np.abs(rhs))

    def test_zero_data(self):
        grid = TemporalGrid.uniform(8, 1.0)
        y = properties.scalar_solve(0.5, 2.0, grid, y0=0.0)
        assert np.all(y == 0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_first_step_with_unit_source_no_reaction(self, alpha):
        grid = TemporalGrid.uniform(4, 1.0)
        tau = 0.25
        y = properties.scalar_solve(alpha, 0.0, grid, y0=0.0, g_factors=grid.tau)
        assert y[0] == pytest.approx(gamma_fn(2.0 - alpha) * tau ** alpha,
                                     rel=1e-13)

    def test_negative_reaction_rejected(self):
        grid = TemporalGrid.uniform(4, 1.0)
        with pytest.raises(DomainError):
            properties.scalar_solve(0.5, -1.0, grid, y0=0.0)


class TestSpectralDecoupling:
    def test_pde_equals_scalar_times_sine(self):
        mesh = fem1d.Mesh1D(32)
        grid = TemporalGrid.uniform(128, 1.0)
        alpha, mode = 0.6, 1
        spec = assembly.spectral_test_problem(mode, alpha)
        field, _ = solver.solve(spec, grid, mesh)
        lam = assembly.spectral_eigenvalue(mesh, mode)
        scalars = properties.scalar_solve(alpha, lam, grid, y0=1.0)
        predicted = np.outer(scalars, fem1d.sine_vector(mesh, mode))
        scale = np.max(np.abs(predicted))
        assert np.max(np.abs(field.values - predicted)) / scale <= 1e-10

    def test_equals_scalar_times_sine_across_fft_merges(self):
        # J = 2048 takes the n = 1024 and n = 2048 merges onto the FFT path;
        # the naive-sum scalar recursion shares no code with those merges
        assert solver.HISTORY_BLOCK < 1024 and fracops.DENSE_MERGE < 1024
        mesh = fem1d.Mesh1D(8)
        grid = TemporalGrid.uniform(2048, 1.0)
        alpha, mode = 0.7, 2
        field, _ = solver.solve(assembly.spectral_test_problem(mode, alpha), grid, mesh)
        lam = assembly.spectral_eigenvalue(mesh, mode)
        predicted = np.outer(properties.scalar_solve(alpha, lam, grid, y0=1.0),
                             fem1d.sine_vector(mesh, mode))
        scale = np.max(np.abs(predicted))
        assert np.max(np.abs(field.values - predicted)) / scale <= 1e-12

    def test_higher_mode(self):
        mesh = fem1d.Mesh1D(16)
        grid = TemporalGrid.uniform(32, 1.0)
        spec = assembly.spectral_test_problem(3, 0.4)
        field, _ = solver.solve(spec, grid, mesh)
        lam = assembly.spectral_eigenvalue(mesh, 3)
        predicted = np.outer(properties.scalar_solve(0.4, lam, grid, y0=1.0),
                             fem1d.sine_vector(mesh, 3))
        assert np.max(np.abs(field.values - predicted)) <= 1e-10


class TestBlockEquivalence:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_marched_equals_dense_uniform(self, alpha):
        grid = TemporalGrid.uniform(16, 1.0)
        mesh = fem1d.Mesh1D(8)
        loads = assembly.assemble_load(experiment1_spec(alpha), grid, mesh)
        marched, _ = solver.solve(experiment1_spec(alpha), grid, mesh, loads=loads)
        dense = properties.dense_block_solve(grid, mesh, alpha, loads)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(marched.values - dense)) / scale <= 1e-10

    @pytest.mark.parametrize("alpha", [0.02, 0.98])
    def test_marched_equals_dense_across_merges(self, alpha):
        # J = 129 puts a merge boundary at step 64 and leaves of 32 and 33
        rng = np.random.default_rng(17)
        grid = TemporalGrid.uniform(129, 1.0)
        mesh = fem1d.Mesh1D(4)
        loads = rng.uniform(-1.0, 1.0, size=(129, 3))
        marched, _ = solver.solve(ProblemSpec(alpha=alpha), grid,
                                  mesh, loads=loads)
        dense = properties.dense_block_solve(grid, mesh, alpha, loads)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(marched.values - dense)) / scale <= 1e-10


class TestDenseBlockBudget:
    def test_over_budget_rejected_before_allocating(self, monkeypatch):
        def no_weights(*args):
            raise AssertionError("weights built before the budget check")

        monkeypatch.setattr(properties, "temporal_weights", no_weights)
        grid = TemporalGrid.uniform(4096, 1.0)
        mesh = fem1d.Mesh1D(8)
        loads = np.broadcast_to(0.0, (4096, 7))  # no memory of its own
        assert (4096 * 7) ** 2 > solver.BUDGET
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="budget"):
                properties.dense_block_solve(grid, mesh, 0.5, loads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestEnergyIdentity:
    @pytest.mark.parametrize("alpha", [0.3, 0.8])
    def test_gap_small_and_consistent(self, alpha):
        grid = TemporalGrid.uniform(32, 1.0)
        mesh = fem1d.Mesh1D(16)
        spec = experiment1_spec(alpha)
        loads = assembly.assemble_load(spec, grid, mesh)
        field, report = solver.solve(spec, grid, mesh, loads=loads)
        weights = temporal_weights(grid, alpha)
        standalone = properties.energy_identity_gap(field, weights, loads)
        assert report.energy_gap <= 1e-10
        assert standalone <= 1e-10


# uneven leaves and one FFT merge, and leaves with dense merges only
LEAF_GRIDS = {"uniform-64x1100": (64, TemporalGrid.uniform(1100, 1.0)),
              "uniform-16x300": (16, TemporalGrid.uniform(300, 1.0))}


class TestLeafLoads:
    @pytest.mark.parametrize("grid_name", sorted(LEAF_GRIDS))
    @pytest.mark.parametrize("spec", [experiment1_spec(0.5), harness.manufactured_problem(0.8),
                                      ProblemSpec(alpha=0.3)],
                             ids=["exp1", "manufactured", "zero"])
    def test_leaf_loads_solve_bitwise_as_full_array(self, spec, grid_name):
        nx, grid = LEAF_GRIDS[grid_name]
        mesh = fem1d.Mesh1D(nx)
        field, report = solver.solve(spec, grid, mesh)
        loads = assembly.assemble_load(spec, grid, mesh)
        given, given_report = solver.solve(spec, grid, mesh, loads=loads)
        assert np.array_equal(field.values, given.values)
        assert np.array_equal(report.residual_norms, given_report.residual_norms)
        assert report.energy_gap == given_report.energy_gap

    @pytest.mark.parametrize("grid_name", sorted(LEAF_GRIDS))
    def test_step_range_rows_equal_full_rows(self, grid_name):
        nx, grid = LEAF_GRIDS[grid_name]
        mesh = fem1d.Mesh1D(nx)
        spec = experiment1_spec(0.5)
        full = assembly.assemble_load(spec, grid, mesh)
        load = assembly.load_terms(spec, grid, mesh)
        J = grid.num_steps
        leaves = [(lo, hi) for lo, mid, hi in solver._causal_blocks(0, J) if mid == hi]
        middle, last = leaves[len(leaves) // 2], leaves[-1]
        assert last[1] == J and last[1] - last[0] < solver.HISTORY_BLOCK
        for lo, hi in (middle, last, (J // 2, J // 2)):
            rows = load.rows(slice(lo, hi))
            assert rows.shape == (hi - lo, mesh.n_interior)
            assert np.array_equal(rows, full[lo:hi])

    @pytest.mark.parametrize("spec, built", [
        (experiment1_spec(0.5), ["power_load_vector"] * 2),
        (harness.manufactured_problem(0.8), ["sine_load_vector"] * 2),
    ], ids=["exp1", "manufactured"])
    def test_solve_builds_each_spatial_vector_once(self, spec, built, monkeypatch):
        # one call per load term, however many leaves read its rows
        calls = []
        for name in ("power_load_vector", "sine_load_vector"):
            def spy(*args, _name=name, _original=getattr(fem1d, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(fem1d, name, spy)
        nx, grid = LEAF_GRIDS["uniform-64x1100"]
        solver.solve(spec, grid, fem1d.Mesh1D(nx))
        assert calls == built

    def test_aliasing_mode_raises_before_any_step(self, monkeypatch):
        def no_factor(self):
            raise AssertionError("a step was factored before the data were checked")

        monkeypatch.setattr(fem1d.TridiagonalMatrix, "factor", no_factor)
        spec = assembly.spectral_test_problem(8, 0.5)
        with pytest.raises(DomainError, match="aliasing"):
            solver.solve(spec, TemporalGrid.uniform(200, 1.0), fem1d.Mesh1D(8))

    def test_solve_holds_its_field_and_one_leaf(self):
        # initial data and a source, two load terms; 2048 steps reach the
        # FFT merges.  Neither a whole load array nor a whole merge product
        # may be formed: the peak stays within the field plus a few buffers.
        grid = TemporalGrid.uniform(2048, 1.0)
        mesh = fem1d.Mesh1D(128)
        field_bytes = 2048 * mesh.n_interior * 8
        tracemalloc.start()
        try:
            field, _ = solver.solve(experiment1_spec(0.8), grid, mesh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert field.values.nbytes == field_bytes
        assert peak < field_bytes + 6 * CHUNK * 8


def _plain_march(spec, grid, mesh):
    """The march with every product allocated anew: a gathered near block per
    leaf, ``mass.matvec`` and a fresh right-hand side per step, the step
    matrix's ``matvec`` and ``np.linalg.norm`` in the checks, and the dense
    merges as gathered block products.  Returns the values, the residual
    norms and the energy gap that ``solver.solve`` must equal bitwise."""
    weights = temporal_weights(grid, spec.alpha)
    J, N = grid.num_steps, mesh.n_interior
    rows = assembly.load_terms(spec, grid, mesh).rows
    mass = fem1d.assemble_mass(mesh)
    stiffness = fem1d.assemble_stiffness(mesh)
    diag_weight = weights.block(slice(0, 1), slice(0, 1)).item()
    tau = grid.tau[0]
    step_matrix = fem1d.TridiagonalMatrix(diag_weight * mass.diag + tau * stiffness.diag,
                                          diag_weight * mass.off + tau * stiffness.off)
    factor = step_matrix.factor()
    matrix_norm = (np.max(np.abs(step_matrix.diag))
                   + 2.0 * np.max(np.abs(step_matrix.off), initial=0.0))
    values = np.zeros((J, N))
    residuals = np.empty(J)
    lhs_energy = rhs_energy = 0.0
    for lo, mid, hi in solver._causal_blocks(0, J):
        if mid < hi:
            if hi - lo <= fracops.DENSE_MERGE:
                values[mid:hi] += weights.block(slice(mid, hi), slice(lo, mid)) @ values[lo:mid]
            else:
                weights.history_block(values, lo, mid, hi)
            continue
        steps = slice(lo, hi)
        leaf_loads = rows(steps)
        near = weights.block(steps, steps)
        hist = np.empty((hi - lo, N))
        for i, k in enumerate(range(lo, hi)):
            hist[i] = mass.matvec(values[k] + near[i, :i] @ values[lo:k])
            values[k] = factor.solve(leaf_loads[i] - hist[i])
        u = values[steps]
        rhs = leaf_loads - hist
        action = step_matrix.matvec(u)
        scale = np.maximum(matrix_norm * np.linalg.norm(u, axis=1)
                           + np.linalg.norm(rhs, axis=1), 1e-300)
        residuals[steps] = np.linalg.norm(action - rhs, axis=1) / scale
        lhs_energy += float(np.vdot(u, hist + action))
        rhs_energy += float(np.vdot(u, leaf_loads))
    gap = abs(lhs_energy - rhs_energy) / max(abs(lhs_energy), abs(rhs_energy), 1e-300)
    return values, residuals, gap


class TestInPlaceMarch:
    # 1100 steps: FFT merges of 1100 and 550 steps, dense merges of 275 down
    # to 68 steps, odd splits and leaves of 34 and 35 steps; 2 cells leave
    # one unknown and empty off-diagonal bands
    @pytest.mark.parametrize("nx", [8, 2])
    @pytest.mark.parametrize("spec", [
        experiment1_spec(0.5), harness.experiment_problem("experiment3", 0.8),
        harness.manufactured_problem(0.8), assembly.spectral_test_problem(1, 0.6),
        ProblemSpec(alpha=0.3)], ids=["exp1", "exp3", "manufactured", "spectral", "zero"])
    def test_solve_equals_the_plain_march_bitwise(self, spec, nx):
        grid, mesh = TemporalGrid.uniform(1100, 1.0), fem1d.Mesh1D(nx)
        field, report = solver.solve(spec, grid, mesh)
        values, residuals, gap = _plain_march(spec, grid, mesh)
        assert np.array_equal(field.values, values)
        assert np.array_equal(report.residual_norms, residuals)
        assert report.energy_gap == gap

    @pytest.mark.parametrize("J", [100, 129, 513, 1100])
    def test_dense_merges_equal_the_gathered_block_product(self, J):
        rng = np.random.default_rng(J)
        weights = temporal_weights(TemporalGrid.uniform(J, 1.0), 0.8)
        values = rng.uniform(-1.0, 1.0, size=(J, 5))
        merges = [(lo, mid, hi) for lo, mid, hi in solver._causal_blocks(0, J)
                  if mid < hi and hi - lo <= fracops.DENSE_MERGE]
        assert merges
        for lo, mid, hi in merges:
            strided, gathered = values.copy(), values.copy()
            weights.history_block(strided, lo, mid, hi)
            gathered[mid:hi] += weights.block(slice(mid, hi), slice(lo, mid)) @ values[lo:mid]
            assert np.array_equal(strided, gathered)


class TestUniformGridOnly:
    def test_solve_refuses_a_graded_grid_before_allocating(self):
        grid = TemporalGrid((np.arange(1001) / 1000) ** 2)
        mesh = fem1d.Mesh1D(64)
        assert grid.num_steps * mesh.n_interior * 8 > 1 << 16  # the field alone
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="uniform"):
                solver.solve(experiment1_spec(0.5), grid, mesh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_oracles_refuse_a_graded_grid(self):
        grid = TemporalGrid((np.arange(9) / 8) ** 2)
        with pytest.raises(DomainError, match="uniform"):
            properties.scalar_solve(0.5, 1.0, grid, y0=1.0)
        with pytest.raises(DomainError, match="uniform"):
            properties.dense_block_solve(grid, fem1d.Mesh1D(4), 0.5, np.zeros((8, 3)))

    def test_one_factorisation_per_solve(self, monkeypatch):
        sizes = []
        factor = fem1d.TridiagonalMatrix.factor

        def spy(self):
            sizes.append(self.size)
            return factor(self)

        monkeypatch.setattr(fem1d.TridiagonalMatrix, "factor", spy)
        nx, grid = LEAF_GRIDS["uniform-64x1100"]
        solver.solve(experiment1_spec(0.5), grid, fem1d.Mesh1D(nx))
        assert sizes == [nx - 1]


# one small instance of each frozen dataclass that holds an array
_ARRAY_HOLDERS = {
    "TemporalGrid": lambda: TemporalGrid.uniform(4),
    "TemporalWeightMatrix": lambda: temporal_weights(TemporalGrid.uniform(4), 0.5),
    "TridiagonalMatrix": lambda: fem1d.assemble_mass(fem1d.Mesh1D(4)),
    "ThomasFactor": lambda: fem1d.assemble_mass(fem1d.Mesh1D(4)).factor(),
    "SpaceTimeField": lambda: solver.SpaceTimeField(TemporalGrid.uniform(2), fem1d.Mesh1D(3),
                                                    np.zeros((2, 2))),
    "SolveReport": lambda: solver.SolveReport(np.zeros(2), 0.0, 0.0),
    "BlockMoments": lambda: harness.BlockMoments.of_values(
        TemporalGrid.uniform(2), fem1d.Mesh1D(3), np.zeros((2, 2))),
    "Load": lambda: assembly.load_terms(experiment1_spec(0.5), TemporalGrid.uniform(2),
                                        fem1d.Mesh1D(3)),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_HOLDERS))
def test_array_holders_compare_and_hash_by_identity(name):
    first, second = _ARRAY_HOLDERS[name](), _ARRAY_HOLDERS[name]()
    assert type(first).__name__ == name
    assert (first == second) is False
    assert first == first
    assert hash(first) == hash(first)
