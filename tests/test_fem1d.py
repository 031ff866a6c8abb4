import math

import numpy as np
import pytest
import scipy.linalg

from fracstep.errors import DomainError, NestingError, SolverError
from fracstep.fem1d import (
    Mesh1D,
    TridiagonalMatrix,
    assemble_mass,
    assemble_stiffness,
    pencil_eigenvalue,
    power_load_vector,
    prolong_rows,
    sine_load_vector,
    sine_vector,
)

from decimal_oracle import sine_moments

# frozen via the quadrature oracle
POWER_LOAD_M099_N8 = np.array([
    1.3489914666202574, 0.5156866623407721, 0.3363840972830402,
    0.25088615354954558, 0.20039068908640006, 0.16695426977286887,
    0.14314843878781541,
])
SINE_LOAD_M1_N4_MIDDLE = 0.2374103008879459


class TestMesh:
    def test_validation(self):
        with pytest.raises(DomainError):
            Mesh1D(1)
        with pytest.raises(DomainError):
            Mesh1D(2.5)

    def test_geometry(self):
        mesh = Mesh1D(4)
        assert mesh.h == 0.25
        assert np.allclose(mesh.interior_nodes, [0.25, 0.5, 0.75])


class TestMatrices:
    def test_mass_single_interior_node(self):
        mesh = Mesh1D(2)
        mass = assemble_mass(mesh)
        assert mass.size == 1
        assert mass.diag[0] == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_mass_row_sums_partition_of_unity(self):
        mesh = Mesh1D(16)
        sums = assemble_mass(mesh).matvec(np.ones(15))
        assert np.allclose(sums[1:-1], mesh.h, rtol=1e-14)
        assert np.allclose(sums[[0, -1]], 5.0 * mesh.h / 6.0, rtol=1e-14)

    def test_positive_definite(self):
        rng = np.random.default_rng(0)
        mesh = Mesh1D(12)
        mass = assemble_mass(mesh)
        stiffness = assemble_stiffness(mesh)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=11)
            if np.all(x == 0.0):
                continue
            assert mass.quadform(x) > 0.0
            assert stiffness.quadform(x) > 0.0

    def test_stiffness_single_interior_node(self):
        assert assemble_stiffness(Mesh1D(2)).diag[0] == pytest.approx(4.0)

    def test_stiffness_consistency_on_parabola(self):
        # K applied to the interpolant of x(1-x) equals the load of the
        # constant 2 exactly: second differences are exact on quadratics
        mesh = Mesh1D(16)
        x = mesh.interior_nodes
        action = assemble_stiffness(mesh).matvec(x * (1.0 - x))
        assert np.allclose(action, 2.0 * power_load_vector(mesh, 0.0), rtol=1e-12)

    def test_pencil_eigenvalues_vs_dense_solve(self):
        mesh = Mesh1D(8)
        dense_k = assemble_stiffness(mesh).to_dense()
        dense_m = assemble_mass(mesh).to_dense()
        eigvals, eigvecs = scipy.linalg.eigh(dense_k, dense_m)
        for mode in range(1, 8):
            assert pencil_eigenvalue(mesh, mode) == pytest.approx(
                eigvals[mode - 1], rel=1e-10)
            # eigenvectors are the sine vectors up to scaling
            vec = eigvecs[:, mode - 1]
            sine = sine_vector(mesh, mode)
            sine = sine / np.linalg.norm(sine) * np.linalg.norm(vec)
            align = min(np.max(np.abs(vec - sine)), np.max(np.abs(vec + sine)))
            assert align < 1e-10


class TestThomas:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 7, 40):
            diag = rng.uniform(4.0, 6.0, size=n)  # diagonally dominant
            off = rng.uniform(-1.0, 1.0, size=n - 1)
            tri = TridiagonalMatrix(diag, off)
            rhs = rng.uniform(-1.0, 1.0, size=n)
            expected = np.linalg.solve(tri.to_dense(), rhs)
            assert np.allclose(tri.factor().solve(rhs), expected,
                               rtol=1e-12, atol=1e-14)

    def test_solve_overwrites_a_contiguous_rhs(self):
        tri = TridiagonalMatrix(np.full(3, 4.0), np.ones(2))
        rows = np.ones((2, 3))
        x = tri.factor().solve(rows[1])
        assert np.shares_memory(x, rows)
        assert np.allclose(tri.matvec(rows[1]), 1.0, rtol=1e-14)
        assert np.array_equal(rows[0], np.ones(3))
        given = [1.0, 1.0, 1.0]  # copied first: the caller's list is left alone
        assert np.array_equal(tri.factor().solve(given), x)
        assert given == [1.0, 1.0, 1.0]

    def test_wrong_length_rhs_rejected(self):
        factor = TridiagonalMatrix(np.full(3, 4.0), np.ones(2)).factor()
        for n in (2, 4):
            with pytest.raises(DomainError):
                factor.solve(np.ones(n))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(SolverError):
            TridiagonalMatrix(np.array([1.0, -1.0]), np.array([0.5])).factor()

    def test_quadform_rows_matches_loop(self):
        rng = np.random.default_rng(2)
        mesh = Mesh1D(8)
        mass = assemble_mass(mesh)
        rows = rng.uniform(-1.0, 1.0, size=(5, 7))
        batch = mass.quadform_rows(rows)
        for i in range(5):
            assert batch[i] == pytest.approx(mass.quadform(rows[i]), rel=1e-13)


class TestLoads:
    def test_power_load_constant(self):
        mesh = Mesh1D(8)
        assert np.allclose(power_load_vector(mesh, 0.0), mesh.h, rtol=1e-13)

    def test_power_load_linear(self):
        mesh = Mesh1D(8)
        expected = mesh.interior_nodes * mesh.h
        assert np.allclose(power_load_vector(mesh, 1.0), expected, rtol=1e-12)

    def test_power_load_near_minus_one_frozen(self):
        load = power_load_vector(Mesh1D(8), -0.99)
        assert load[0] == pytest.approx(POWER_LOAD_M099_N8[0], rel=1e-9)
        assert np.allclose(load, POWER_LOAD_M099_N8, rtol=1e-9)

    def test_power_load_rejects_bad_exponent(self):
        with pytest.raises(DomainError):
            power_load_vector(Mesh1D(8), -1.0)

    def test_sine_load_symmetry_and_value(self):
        mesh = Mesh1D(4)
        load = sine_load_vector(mesh, 1)
        assert load[0] == pytest.approx(load[2], rel=1e-14)
        assert load[1] == pytest.approx(SINE_LOAD_M1_N4_MIDDLE, rel=1e-9)

    def test_sine_load_against_decimal_closed_form(self):
        # the half-angle factor 4 sin^2(pi h / 2) / (h pi^2) keeps full
        # precision; 2 (1 - cos(pi h)) / (h pi^2) is off by 2.6e-11 here.
        # Compared in the max norm: near x = 1 the nodal sine itself carries
        # the rounding of pi x_i.
        load = sine_load_vector(Mesh1D(2048), 1)
        expected = np.array([float(m) for m in sine_moments(2048)])
        np.testing.assert_allclose(load, expected, rtol=0.0,
                                   atol=1e-15 * expected.max())

    def test_sine_load_odd_mode_vanishes_at_center(self):
        load = sine_load_vector(Mesh1D(4), 2)
        assert abs(load[1]) < 1e-15


def _distances(values, coarse, fine, target):
    """L2 and H1-seminorm distances of prolonged coarse rows to fine rows."""
    diff = prolong_rows(values, coarse, fine) - target
    return (np.sqrt(assemble_mass(fine).quadform_rows(diff)),
            np.sqrt(assemble_stiffness(fine).quadform_rows(diff)))


class TestFieldsAndNorms:
    def test_identical_fields(self):
        mesh = Mesh1D(8)
        values = np.sin(np.arange(1, 8))
        assert np.array_equal(prolong_rows(values, mesh, mesh), values[None, :])
        l2, h1 = _distances(values, mesh, mesh, values)
        assert l2[0] == 0.0 and h1[0] == 0.0

    def test_l2_of_sine_interpolant(self):
        fine = Mesh1D(64)
        l2, _ = _distances(np.zeros(1), Mesh1D(2), fine, sine_vector(fine, 1))
        assert abs(l2[0] - 1.0 / math.sqrt(2.0)) < 1e-3

    def test_h1_of_parabola_interpolant(self):
        fine = Mesh1D(64)
        x = fine.interior_nodes
        _, h1 = _distances(np.zeros(1), Mesh1D(2), fine, x * (1.0 - x))
        assert abs(h1[0] - math.sqrt(1.0 / 3.0)) < 1e-3

    def test_prolong_restrict_identity(self):
        rng = np.random.default_rng(3)
        coarse = Mesh1D(8)
        coeffs = rng.uniform(-1.0, 1.0, size=(2, 7))
        for factor in (2, 3, 4):
            lifted = prolong_rows(coeffs, coarse, Mesh1D(8 * factor))
            assert np.array_equal(lifted[:, factor - 1::factor], coeffs)

    def test_non_nested_rejected(self):
        with pytest.raises(NestingError):
            prolong_rows(np.zeros(7), Mesh1D(8), Mesh1D(12))
