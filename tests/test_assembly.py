import math

import numpy as np
import pytest

from fracstep import fem1d, solver
from fracstep.assembly import (
    InitialData,
    ProblemSpec,
    SourceTerm,
    assemble_load,
    initial_time_factors,
    manufactured_problem,
    power_time_factors,
    spectral_eigenvalue,
    spectral_test_problem,
)
from fracstep.errors import CHUNK, DomainError
from fracstep.fracops import PowerFunction, TemporalGrid, derivative_power_function
from fracstep.gammafn import gamma_fn
from fracstep.quadrature import fixed_order_integral

from decimal_oracle import manufactured_error_norms

# frozen via the quadrature oracle
TIME_FACTOR_HALF_TAU1 = 1.1283791670955126
MANUFACTURED_COEFF_08 = 1.8152073684305601  # 2/Gamma(2.2)


class TestTimeFactors:
    def test_first_factor_alpha_half(self):
        grid = TemporalGrid.uniform(4, 4.0)  # tau = 1
        factors = initial_time_factors(grid, 0.5)
        assert factors[0] == pytest.approx(TIME_FACTOR_HALF_TAU1, rel=1e-9)

    def test_telescoping_sum(self):
        grid = TemporalGrid.uniform(16, 2.0)
        for alpha in (0.2, 0.5, 0.8):
            factors = initial_time_factors(grid, alpha)
            expected = 2.0 ** (1.0 - alpha) / gamma_fn(2.0 - alpha)
            assert float(np.sum(factors)) == pytest.approx(expected, rel=1e-13)

    def test_source_factor_sigma_049(self):
        grid = TemporalGrid.uniform(1, 1.0)
        factors = power_time_factors(grid, -0.49)
        assert factors[0] == pytest.approx(1.0 / 0.51, rel=1e-13)

    def test_sigma_at_least_one_rejected(self):
        grid = TemporalGrid.uniform(4, 1.0)
        with pytest.raises(DomainError):
            power_time_factors(grid, -1.0)
        with pytest.raises(DomainError):
            SourceTerm("power", 0.0, -1.2)


class TestLoads:
    def test_zero_scale_initial_data(self):
        grid = TemporalGrid.uniform(4, 1.0)
        mesh = fem1d.Mesh1D(8)
        spec = ProblemSpec(alpha=0.5,
                           initial=InitialData(kind="power", scale=0.0, exponent=0.5))
        assert np.all(assemble_load(spec, grid, mesh) == 0.0)

    def test_no_source_gives_zero(self):
        grid = TemporalGrid.uniform(4, 1.0)
        mesh = fem1d.Mesh1D(8)
        spec = ProblemSpec(alpha=0.5)
        assert np.all(assemble_load(spec, grid, mesh) == 0.0)

    def test_unit_source_on_unit_cells(self):
        # f = x^0 t^0 on tau = h = 1-sized cells gives entries tau * h
        grid = TemporalGrid.uniform(3, 3.0)
        mesh = fem1d.Mesh1D(4)
        spec = ProblemSpec(alpha=0.5,
                           sources=(SourceTerm("power", 0.0, 0.0),))
        loads = assemble_load(spec, grid, mesh)
        assert np.allclose(loads, 1.0 * mesh.h, rtol=1e-13)

    def test_separable_outer_product_entrywise(self):
        grid = TemporalGrid.uniform(5, 1.0)
        mesh = fem1d.Mesh1D(8)
        spec = ProblemSpec(
            alpha=0.4,
            initial=InitialData(kind="power", scale=1.0, exponent=-0.8),
            sources=(SourceTerm("power", -0.8, -0.49),))
        loads = assemble_load(spec, grid, mesh)
        ifac = initial_time_factors(grid, 0.4)
        sfac = power_time_factors(grid, -0.49)
        space = fem1d.power_load_vector(mesh, -0.8)
        for k in range(5):
            for i in range(7):
                expected = (ifac[k] + sfac[k]) * space[i]
                assert loads[k, i] == pytest.approx(expected, rel=1e-14)

    def test_nodal_initial_data_uses_mass_weighting(self):
        # the sine initial value is interpolated on the load's mesh
        grid = TemporalGrid.uniform(3, 1.0)
        mesh = fem1d.Mesh1D(8)
        values = fem1d.sine_vector(mesh, 2)
        spec = spectral_test_problem(2, 0.6)
        loads = assemble_load(spec, grid, mesh)
        expected = np.outer(initial_time_factors(grid, 0.6),
                            fem1d.assemble_mass(mesh).matvec(values))
        assert np.allclose(loads, expected, rtol=1e-14)
        scaled = ProblemSpec(alpha=0.6,
                             initial=InitialData(kind="sine", scale=2.5, mode=2))
        assert np.allclose(assemble_load(scaled, grid, mesh), 2.5 * expected,
                           rtol=1e-14)


class TestManufactured:
    def test_exact_solution_value(self):
        spec = manufactured_problem(0.8)
        assert spec.exact(0.5, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_time_derivative_coefficient_frozen(self):
        spec = manufactured_problem(0.8)
        assert spec.sources[0].scale == pytest.approx(
            MANUFACTURED_COEFF_08, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_residual_vanishes(self, alpha):
        spec = manufactured_problem(alpha)
        tpow = derivative_power_function(PowerFunction(1.0, 2.0), alpha)
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.05, 1.0)
            source = sum(
                term.scale * math.sin(math.pi * x) * t ** term.temporal_exponent
                for term in spec.sources)
            residual = (math.sin(math.pi * x) * float(tpow(t))
                        + math.pi ** 2 * t ** 2 * math.sin(math.pi * x) - source)
            assert abs(residual) < 1e-10

    def test_error_norms_of_zero_field_match_solution_norms(self):
        # ||u||_{L2 L2}^2 = int t^4/2 = 1/10 and the H1 version gains pi^2
        spec = manufactured_problem(0.5)
        grid = TemporalGrid.uniform(32, 1.0)
        mesh = fem1d.Mesh1D(16)
        zeros = solver.SpaceTimeField(grid, mesh, np.zeros((32, 15)))
        e1, e2 = spec.exact.error_norms(zeros)
        assert e2 == pytest.approx(math.sqrt(0.1), rel=1e-13)
        assert e1 == pytest.approx(math.pi * math.sqrt(0.1), rel=1e-13)

    def test_error_norms_against_quadrature(self):
        # independent route: integrate ||u(t) - U_k||^2 with dense rules in
        # space (per cell) and time (per interval)
        spec = manufactured_problem(0.7)
        grid = TemporalGrid.uniform(3, 1.0)
        mesh = fem1d.Mesh1D(4)
        rng = np.random.default_rng(23)
        values = rng.uniform(-0.5, 0.5, size=(3, 3))
        e1, e2 = spec.exact.error_norms(solver.SpaceTimeField(grid, mesh, values))

        def pwl(coeffs, x):
            padded = np.concatenate([[0.0], coeffs, [0.0]])
            return np.interp(x, np.arange(5) * 0.25, padded)

        def space_l2_sq(coeffs, t):
            total = 0.0
            for cell in range(4):
                a, b = cell * 0.25, (cell + 1) * 0.25
                total += fixed_order_integral(
                    a, b, smooth=lambda x: (t ** 2 * np.sin(math.pi * x)
                                            - pwl(coeffs, x)) ** 2, order=60)
            return total

        e2_sq = 0.0
        for k in range(3):
            a, b = grid.nodes[k], grid.nodes[k + 1]
            e2_sq += fixed_order_integral(
                a, b, smooth=lambda t: np.array(
                    [space_l2_sq(values[k], ti) for ti in np.atleast_1d(t)]),
                order=40)
        assert e2 == pytest.approx(math.sqrt(e2_sq), rel=1e-10)

        def space_h1_sq(coeffs, t):
            padded = np.concatenate([[0.0], coeffs, [0.0]])
            slopes = np.diff(padded) / 0.25
            total = 0.0
            for cell in range(4):
                a, b = cell * 0.25, (cell + 1) * 0.25
                total += fixed_order_integral(
                    a, b, smooth=lambda x, s=slopes[cell]: (
                        t ** 2 * math.pi * np.cos(math.pi * x) - s) ** 2, order=60)
            return total

        e1_sq = 0.0
        for k in range(3):
            a, b = grid.nodes[k], grid.nodes[k + 1]
            e1_sq += fixed_order_integral(
                a, b, smooth=lambda t: np.array(
                    [space_h1_sq(values[k], ti) for ti in np.atleast_1d(t)]),
                order=40)
        assert e1 == pytest.approx(math.sqrt(e1_sq), rel=1e-10)

    def test_error_norms_of_solve_against_decimal_oracle(self):
        grid = TemporalGrid.uniform(128)
        mesh = fem1d.Mesh1D(256)
        spec = manufactured_problem(0.8)
        field, _ = solver.solve(spec, grid, mesh)
        e1, e2 = spec.exact.error_norms(field)
        oracle_e1, oracle_e2 = manufactured_error_norms(field.values, 128)
        assert e1 == pytest.approx(oracle_e1, rel=1e-11, abs=0.0)
        assert e2 == pytest.approx(oracle_e2, rel=1e-11, abs=0.0)

    def test_error_norms_of_mean_interpolant_against_decimal_oracle(self):
        # U_k = m_k I_h s makes the discrete E1 band term vanish: only the
        # temporal variance and the interpolation defect are left.  The rows
        # are reduced in three chunks.
        grid = TemporalGrid.uniform(128)
        mesh = fem1d.Mesh1D(1024)
        assert 128 * 1025 > 2 * CHUNK
        lo, hi = grid.nodes[:-1], grid.nodes[1:]
        mean = (lo * lo + lo * hi + hi * hi) / 3.0
        values = np.outer(mean, fem1d.sine_vector(mesh, 1))
        field = solver.SpaceTimeField(grid, mesh, values)
        e1, e2 = manufactured_problem(0.8).exact.error_norms(field)
        oracle_e1, oracle_e2 = manufactured_error_norms(values, 128)
        assert e1 == pytest.approx(oracle_e1, rel=1e-11, abs=0.0)
        assert e2 == pytest.approx(oracle_e2, rel=1e-11, abs=0.0)


class TestSpectral:
    def test_aliasing_guard(self):
        # the spec is mesh-free: an aliasing mode is rejected with the load
        grid = TemporalGrid.uniform(2, 1.0)
        spec = spectral_test_problem(8, 0.5)
        assert assemble_load(spec, grid, fem1d.Mesh1D(16)).shape == (2, 15)
        with pytest.raises(DomainError, match="aliasing"):
            assemble_load(spec, grid, fem1d.Mesh1D(8))
        with pytest.raises(DomainError):
            spectral_test_problem(0, 0.5)

    def test_rayleigh_quotient_matches_closed_eigenvalue(self):
        mesh = fem1d.Mesh1D(8)
        for mode in range(1, 8):
            assert spectral_eigenvalue(mesh, mode) == pytest.approx(
                fem1d.pencil_eigenvalue(mesh, mode), rel=1e-13)


class TestValidation:
    def test_alpha_range(self):
        with pytest.raises(DomainError):
            ProblemSpec(alpha=1.2)
        with pytest.raises(DomainError):
            ProblemSpec(alpha=0.0)

    def test_spatial_exponent(self):
        with pytest.raises(DomainError):
            SourceTerm("power", -1.01, 0.0)
        with pytest.raises(DomainError):
            InitialData(kind="power", exponent=-1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("build, name", [
        (lambda v: InitialData(kind="power", scale=v), "scale"),
        (lambda v: InitialData(kind="sine", scale=v), "scale"),
        (lambda v: InitialData(kind="power", exponent=v), "exponent"),
        (lambda v: SourceTerm("power", 0.5, 0.0, scale=v), "scale"),
        (lambda v: SourceTerm("power", v, 0.0), "spatial_param"),
        (lambda v: SourceTerm("sine", v, 0.0), "spatial_param"),
        (lambda v: SourceTerm("power", 0.5, v), "temporal_exponent"),
    ], ids=["initial-scale", "sine-initial-scale", "initial-exponent",
            "source-scale", "source-power", "source-mode", "source-time"])
    def test_non_finite_datum_rejected(self, build, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            build(value)
