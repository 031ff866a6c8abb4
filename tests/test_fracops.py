import math

import numpy as np
import pytest

from fracstep.assembly import initial_time_factors
from fracstep.errors import DomainError
from fracstep.fracops import (
    DENSE_MERGE,
    FFT_CHUNK,
    PowerFunction,
    TemporalGrid,
    _four_corner,
    derivative_pairing_matrix,
    derivative_pairing_pwc,
    fractional_integral_pairing_pwc,
    fractional_seminorm_pwc,
    integral_power_function,
    right_integral_power,
    riemann_liouville_derivative_power,
    riemann_liouville_integral_power,
    temporal_weights,
)
from fracstep.gammafn import gamma_fn
from fracstep.properties import _pwc_left_integral

# frozen via the quadrature oracle (see tests of fracstep.quadrature)
INTEGRAL_06_POW_M049_AT_1 = 1.8349412268181371
DERIV_08_POW_2_AT_1 = 1.8152073684174708  # numeric-diff oracle, ~1e-11 noise
WEIGHT_DIAG_HALF_TAU1 = 1.1283791670955126
WEIGHT_OFF1_HALF_TAU1 = -0.66098921258529453
PAIRING_UNIT_QUARTER = 1.1283791670955126


class TestTypes:
    def test_power_function_validation(self):
        with pytest.raises(DomainError):
            PowerFunction(1.0, -1.0)
        with pytest.raises(DomainError):
            PowerFunction(math.inf, 0.5)

    def test_grid_invariants(self):
        grid = TemporalGrid.uniform(4, 2.0)
        assert grid.num_steps == 4
        assert grid.final_time == 2.0
        assert np.allclose(grid.tau, 0.5)
        with pytest.raises(DomainError):
            TemporalGrid(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(DomainError):
            TemporalGrid(np.array([0.1, 0.5, 1.0]))


class TestIntegralPower:
    def test_first_integral_of_one_is_t(self):
        p = PowerFunction(1.0, 0.0)
        assert riemann_liouville_integral_power(p, 1.0, 0.5) == pytest.approx(
            0.5, rel=1e-14)

    def test_half_order_semigroup_recovers_identity(self):
        p = PowerFunction(1.0, 0.0)
        once = integral_power_function(p, 0.5)
        assert riemann_liouville_integral_power(once, 0.5, 0.7) == pytest.approx(
            0.7, rel=1e-13)

    def test_singular_exponent_against_oracle_value(self):
        p = PowerFunction(1.0, -0.49)
        value = riemann_liouville_integral_power(p, 0.6, 1.0)
        assert value == pytest.approx(INTEGRAL_06_POW_M049_AT_1, rel=1e-9)

    def test_domain_errors(self):
        p = PowerFunction(1.0, 0.5, offset=1.0)
        with pytest.raises(DomainError):
            riemann_liouville_integral_power(p, 0.5, 1.0)  # t == offset
        with pytest.raises(DomainError):
            riemann_liouville_integral_power(p, 2.5, 2.0)  # order out of range


class TestDerivativePower:
    def test_quadratic_against_numdiff_oracle_value(self):
        p = PowerFunction(1.0, 2.0)
        value = riemann_liouville_derivative_power(p, 0.8, 1.0)
        assert value == pytest.approx(DERIV_08_POW_2_AT_1, rel=1e-9)
        assert value == pytest.approx(2.0 / gamma_fn(2.2), rel=1e-13)

    def test_constant_half_derivative(self):
        p = PowerFunction(1.0, 0.0)
        value = riemann_liouville_derivative_power(p, 0.5, 4.0)
        assert value == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13)

    def test_exponent_cancellation_gives_constant(self):
        for gamma in (0.2, 0.5, 0.8):
            p = PowerFunction(1.0, gamma)
            for t in (0.5, 1.0, 2.5):
                value = riemann_liouville_derivative_power(p, gamma, t)
                assert value == pytest.approx(gamma_fn(gamma + 1.0), rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            riemann_liouville_derivative_power(PowerFunction(1.0, -0.5), 0.6, 1.0)
        with pytest.raises(DomainError):
            riemann_liouville_derivative_power(PowerFunction(1.0, 2.0), 1.2, 1.0)
        with pytest.raises(DomainError):
            riemann_liouville_derivative_power(PowerFunction(1.0, 2.0), 0.5, 0.0)


class TestRightIntegral:
    def test_mirror_rule(self):
        # right integral of (1-s)^0 is (1-t)^gamma / Gamma(1+gamma)
        value = right_integral_power(1.0, 0.0, 1.0, 0.5, 0.75)
        assert value == pytest.approx(0.25 ** 0.5 / gamma_fn(1.5), rel=1e-13)
        with pytest.raises(DomainError):
            right_integral_power(1.0, 0.0, 1.0, 0.5, 1.0)


class TestTemporalWeights:
    def test_uniform_diag_and_first_offdiagonal(self):
        grid = TemporalGrid.uniform(6, 6.0)  # tau = 1
        dense = temporal_weights(grid, 0.5).dense()
        assert dense[3, 3] == pytest.approx(WEIGHT_DIAG_HALF_TAU1, rel=1e-9)
        assert dense[3, 2] == pytest.approx(WEIGHT_OFF1_HALF_TAU1, rel=1e-9)
        # and the gamma-closed expressions
        assert dense[0, 0] == pytest.approx(1.0 / gamma_fn(1.5), rel=1e-13)
        assert dense[4, 3] == pytest.approx(
            (2.0 ** 0.5 - 2.0) / gamma_fn(1.5), rel=1e-13)

    def test_rows_telescope_for_any_grid(self):
        rng = np.random.default_rng(7)
        nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, size=7))])
        grid = TemporalGrid(nodes)
        for alpha in (0.2, 0.5, 0.8):
            totals = temporal_weights(grid, alpha).dense().sum(axis=1)
            assert np.allclose(totals, initial_time_factors(grid, alpha),
                               rtol=1e-12, atol=0.0)

    def test_strictly_lower_triangular_zero(self):
        grid = TemporalGrid.uniform(5, 1.0)
        dense = temporal_weights(grid, 0.3).dense()
        assert np.all(dense[np.triu_indices(5, 1)] == 0.0)

    def test_toeplitz_on_uniform(self):
        grid = TemporalGrid.uniform(8, 1.0)
        weights = temporal_weights(grid, 0.7)
        dense = weights.dense()
        for k in range(2, 8):
            for j in range(1, k + 1):
                assert dense[k, j] == pytest.approx(dense[k - 1, j - 1], rel=1e-13)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_history_block_matches_dense_product(self, uniform):
        rng = np.random.default_rng(23)
        if uniform:
            grid = TemporalGrid.uniform(100, 1.0)
        else:
            grid = TemporalGrid(np.concatenate([[0.0], np.cumsum(
                rng.uniform(0.2, 1.0, size=100))]))
        values = rng.uniform(-1.0, 1.0, size=(100, 5))
        for alpha in (0.02, 0.5, 0.98):
            weights = temporal_weights(grid, alpha)
            dense = weights.dense()
            for lo, mid, hi in ((0, 50, 100), (0, 1, 2), (37, 68, 100), (10, 41, 73)):
                expected = dense[mid:hi, lo:mid] @ values[lo:mid]
                block = weights.history_block(values, lo, mid, hi)
                assert block.shape == expected.shape
                assert np.max(np.abs(block - expected)) <= \
                    1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("uniform", [True, False])
    def test_block_matches_dense_slices(self, uniform):
        J = 40
        grid = (TemporalGrid.uniform(J, 1.0) if uniform
                else TemporalGrid((np.arange(J + 1) / J) ** 2))
        weights = temporal_weights(grid, 0.4)
        dense = weights.dense()
        # a leaf, blocks below the diagonal, blocks straddling it, one above
        for rows, cols in ((slice(8, 24), slice(8, 24)), (slice(20, 40), slice(0, 20)),
                           (slice(5, 30), slice(10, 38)), (slice(0, 40), slice(0, 40)),
                           (slice(3, 4), slice(0, 4)), (slice(0, 10), slice(30, 40))):
            block = weights.block(rows, cols)
            assert block.shape == dense[rows, cols].shape
            assert np.array_equal(block, dense[rows, cols])

    # merge lengths n = hi - lo on both sides of DENSE_MERGE, and column
    # counts narrower than one FFT chunk, exactly one chunk, and several
    # chunks with a partly filled last one
    @pytest.mark.parametrize("cols", [3, FFT_CHUNK // 1100, 70])
    def test_history_block_on_both_sides_of_dense_merge(self, cols):
        assert 512 <= DENSE_MERGE < 1100
        grid = TemporalGrid.uniform(1100, 1.0)
        weights = temporal_weights(grid, 0.8)
        dense = weights.dense()
        values = np.random.default_rng(41).uniform(-1.0, 1.0, size=(1100, cols))
        for lo, mid, hi in ((0, 550, 1100), (0, 256, 512), (37, 600, 1100)):
            expected = dense[mid:hi, lo:mid] @ values[lo:mid]
            block = weights.history_block(values, lo, mid, hi)
            assert block.shape == expected.shape
            assert np.max(np.abs(block - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_nonuniform_weights_store_no_matrix(self):
        J = 600
        weights = temporal_weights(TemporalGrid((np.arange(J + 1) / J) ** 2), 0.6)
        held = [value for obj in (weights, weights.grid)
                for value in vars(obj).values() if isinstance(value, np.ndarray)]
        assert held and max(array.size for array in held) <= J + 1

    def test_graded_block_equals_four_corner_slices(self):
        J, alpha = 90, 0.3
        grid = TemporalGrid((np.arange(J + 1) / J) ** 2)
        weights = temporal_weights(grid, alpha)
        full = np.tril(_four_corner(grid, 1.0 - alpha)) / gamma_fn(2.0 - alpha)
        # a leaf, below, straddling and above the diagonal, one row, all
        for rows, cols in ((slice(10, 74), slice(10, 74)), (slice(45, 90), slice(0, 45)),
                           (slice(5, 60), slice(30, 88)), (slice(0, 20), slice(50, 90)),
                           (slice(61, 62), slice(0, 62)), (slice(None), slice(None))):
            block = weights.block(rows, cols)
            assert block.tobytes() == np.ascontiguousarray(full[rows, cols]).tobytes()

    def test_nonuniform_history_block_in_row_chunks(self):
        J = 600
        grid = TemporalGrid((np.arange(J + 1) / J) ** 2)
        weights = temporal_weights(grid, 0.7)
        assert 300 * 300 > FFT_CHUNK  # more than one chunk of block rows
        values = np.random.default_rng(5).uniform(-1.0, 1.0, size=(J, 4))
        expected = weights.dense()[300:600, :300] @ values[:300]
        block = weights.history_block(values, 0, 300, 600)
        np.testing.assert_allclose(block, expected, rtol=1e-12)

    def test_alpha_out_of_range(self):
        grid = TemporalGrid.uniform(4, 1.0)
        with pytest.raises(DomainError):
            temporal_weights(grid, 1.0)
        with pytest.raises(DomainError):
            temporal_weights(grid, 0.0)


class TestSeminorm:
    def test_zero_function(self):
        grid = TemporalGrid.uniform(4, 1.0)
        assert fractional_seminorm_pwc(grid, np.zeros(4), 0.25) == 0.0

    def test_unit_function_on_unit_interval(self):
        grid = TemporalGrid.uniform(1, 1.0)
        pairing = derivative_pairing_pwc(grid, [1.0], 0.25)
        assert pairing == pytest.approx(PAIRING_UNIT_QUARTER, rel=1e-9)
        seminorm = fractional_seminorm_pwc(grid, [1.0], 0.25)
        assert seminorm ** 2 == pytest.approx(
            PAIRING_UNIT_QUARTER / math.cos(math.pi / 4.0), rel=1e-9)

    def test_splitting_invariance(self):
        # the same unit function represented on a finer partition
        fine = TemporalGrid.uniform(8, 1.0)
        seminorm = fractional_seminorm_pwc(fine, np.ones(8), 0.25)
        unit = fractional_seminorm_pwc(TemporalGrid.uniform(1, 1.0), [1.0], 0.25)
        assert seminorm == pytest.approx(unit, rel=1e-12)

    def test_homogeneity(self):
        grid = TemporalGrid.uniform(5, 1.0)
        values = np.array([0.3, -1.2, 0.4, 2.0, -0.7])
        base = fractional_seminorm_pwc(grid, values, 0.3)
        scaled = fractional_seminorm_pwc(grid, -3.0 * values, 0.3)
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_half_excluded(self):
        grid = TemporalGrid.uniform(4, 1.0)
        with pytest.raises(DomainError):
            fractional_seminorm_pwc(grid, np.ones(4), 0.5)
        with pytest.raises(DomainError):
            fractional_seminorm_pwc(grid, np.ones(4), 0.6)


class TestPairingWeightEquivalence:
    def test_derivative_pairing_realizes_weight_matrix(self):
        # the half-order left/right pairing of indicators equals the direct
        # integral weight matrix entry for entry; this is the identity that
        # justifies using the weight matrix as the scheme's bilinear form
        rng = np.random.default_rng(11)
        nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, size=6))])
        grid = TemporalGrid(nodes)
        for alpha in (0.3, 0.6, 0.9):
            dense_weights = temporal_weights(grid, alpha).dense()
            pairing = derivative_pairing_matrix(grid, alpha / 2.0)
            assert np.allclose(pairing, dense_weights, rtol=1e-12, atol=1e-15)


class TestPointwiseEvaluators:
    def test_left_integral_matches_power_rule_on_first_interval(self):
        grid = TemporalGrid.uniform(4, 1.0)
        values = np.array([2.0, 0.0, 0.0, 0.0])
        t = np.array([0.1, 0.2])
        expected = 2.0 * t ** 0.5 / gamma_fn(1.5)
        assert np.allclose(_pwc_left_integral(grid, values, 0.5, t), expected,
                           rtol=1e-13)

    def test_right_integral_mirror(self):
        # the right integral at t is the left integral of the reversed values
        # at 1 - t, and a uniform grid is its own mirror image
        grid = TemporalGrid.uniform(4, 1.0)
        values = np.array([0.0, 0.0, 0.0, 3.0])
        t = np.array([0.8, 0.9])
        expected = 3.0 * (1.0 - t) ** 0.5 / gamma_fn(1.5)
        mirrored = _pwc_left_integral(grid, values[::-1], 0.5, 1.0 - t)
        assert np.allclose(mirrored, expected, rtol=1e-13)

    def test_integral_pairing_positive(self):
        grid = TemporalGrid.uniform(6, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            values = rng.uniform(-1.0, 1.0, size=6)
            pairing = fractional_integral_pairing_pwc(grid, values, 0.3)
            assert pairing > 0.0
