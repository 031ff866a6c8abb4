import math
import tracemalloc

import numpy as np
import pytest

from fracstep import fracops
from fracstep.assembly import initial_time_factors
from fracstep.errors import BUDGET, CHUNK, BudgetError, DomainError
from fracstep.fracops import (
    DENSE_MERGE,
    PowerFunction,
    TemporalGrid,
    TemporalWeightMatrix,
    _four_corner,
    derivative_pairing_pwc,
    derivative_power_function,
    fractional_integral_pairing_pwc,
    fractional_seminorm_pwc,
    integral_power_function,
    temporal_weights,
)
from fracstep.gammafn import gamma_fn

from quadrature_oracle import left_integral

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

    def test_power_function_rejects_points_at_or_before_offset(self):
        p = PowerFunction(1.0, -0.5, offset=1.0)
        for t in (1.0, 0.5, [2.0, 1.0], np.array([[3.0], [0.0]]), math.nan):
            with pytest.raises(DomainError, match="offset"):
                p(t)
        assert np.array_equal(p(np.array([2.0, 5.0])), [1.0, 0.5])

    def test_grid_invariants(self):
        grid = TemporalGrid.uniform(4, 2.0)
        assert grid.num_steps == 4
        assert grid.final_time == 2.0
        assert np.allclose(grid.tau, 0.5)
        with pytest.raises(DomainError):
            TemporalGrid(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(DomainError):
            TemporalGrid(np.array([0.1, 0.5, 1.0]))

    def test_grid_owns_its_nodes(self):
        # the grid used to keep the caller's array: a later write moved its
        # nodes unchecked, and a step turned negative
        base = np.linspace(0.0, 1.0, 5)
        grid = TemporalGrid(base[:])
        base[2] = 0.9
        assert np.array_equal(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(grid.tau, np.full(4, 0.25))

    def test_grid_leaves_the_callers_array_writable(self):
        # the grid used to freeze the caller's own array
        nodes = np.linspace(0.0, 1.0, 5)
        TemporalGrid(nodes)
        nodes[1] = 0.3
        assert nodes[1] == 0.3

    def test_grid_keeps_its_steps(self):
        rng = np.random.default_rng(35)
        for nodes in (np.linspace(0.0, 2.0, 9), (np.arange(41) / 40) ** 2,
                      np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, 300))])):
            grid = TemporalGrid(nodes)
            assert grid.tau.tobytes() == np.diff(grid.nodes).tobytes()
            assert grid.tau is grid.tau
            with pytest.raises(ValueError, match="read-only"):
                grid.tau[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                grid.nodes[1] = 0.5

    @pytest.mark.parametrize("nodes, message", [
        ([0.0, 0.5, 0.5, 1.0], "grid nodes must be strictly increasing"),
        ([0.0, 0.6, 0.4, 1.0], "grid nodes must be strictly increasing"),
        ([0.0, math.nan, 1.0], "grid nodes must be strictly increasing"),
        ([0.0, 1.0, math.inf], "grid nodes must be finite, got final time inf"),
        ([0.1, 0.5, 1.0], "grid must start at t_0 = 0"),
        ([0.0], "grid needs at least two nodes"),
    ])
    def test_grid_refusals_keep_their_messages(self, nodes, message):
        with pytest.raises(DomainError) as refused:
            TemporalGrid(np.array(nodes))
        assert str(refused.value) == message

    @pytest.mark.parametrize("last, match", [(math.inf, "finite"), (math.nan, "increasing")])
    def test_grid_rejects_a_non_finite_node(self, last, match):
        # [0, 1, inf] increases strictly and used to be accepted
        with pytest.raises(DomainError, match=match):
            TemporalGrid(np.array([0.0, 1.0, last]))

    @pytest.mark.parametrize("final_time", [math.inf, math.nan, 0.0, -1.0])
    def test_uniform_rejects_a_non_finite_or_non_positive_final_time(self, final_time):
        # an infinite T used to fail as "grid must start at t_0 = 0", from inf * 0
        with pytest.raises(DomainError, match="final time"):
            TemporalGrid.uniform(4, final_time)

    @pytest.mark.parametrize("num_steps", [2.5, 4.0, "4", 0])
    def test_uniform_rejects_a_non_integer_or_empty_step_count(self, num_steps):
        # 2.5 used to build a 3-step grid ending at T = 1.2
        with pytest.raises(DomainError, match="num_steps"):
            TemporalGrid.uniform(num_steps)

    def test_uniform_over_budget_rejected_before_allocating(self):
        # 2^40 nodes would take 8 TiB; the check must come before np.arange
        with pytest.raises(BudgetError, match="budget"):
            TemporalGrid.uniform(1 << 40)


class TestIntegralPower:
    def test_first_integral_of_one_is_t(self):
        p = PowerFunction(1.0, 0.0)
        assert integral_power_function(p, 1.0)(0.5) == pytest.approx(0.5, rel=1e-14)

    def test_half_order_semigroup_recovers_identity(self):
        p = PowerFunction(1.0, 0.0)
        once = integral_power_function(p, 0.5)
        assert integral_power_function(once, 0.5)(0.7) == pytest.approx(0.7, rel=1e-13)

    def test_singular_exponent_against_oracle_value(self):
        p = PowerFunction(1.0, -0.49)
        value = integral_power_function(p, 0.6)(1.0)
        assert value == pytest.approx(INTEGRAL_06_POW_M049_AT_1, rel=1e-9)

    def test_domain_errors(self):
        p = PowerFunction(1.0, 0.5, offset=1.0)
        with pytest.raises(DomainError):
            integral_power_function(p, 0.5)(1.0)  # t == offset
        with pytest.raises(DomainError):
            integral_power_function(p, 2.5)  # order out of range


class TestDerivativePower:
    def test_quadratic_against_numdiff_oracle_value(self):
        p = PowerFunction(1.0, 2.0)
        value = derivative_power_function(p, 0.8)(1.0)
        assert value == pytest.approx(DERIV_08_POW_2_AT_1, rel=1e-9)
        assert value == pytest.approx(2.0 / gamma_fn(2.2), rel=1e-13)

    def test_constant_half_derivative(self):
        p = PowerFunction(1.0, 0.0)
        value = derivative_power_function(p, 0.5)(4.0)
        assert value == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13)

    def test_exponent_cancellation_gives_constant(self):
        for gamma in (0.2, 0.5, 0.8):
            p = PowerFunction(1.0, gamma)
            for t in (0.5, 1.0, 2.5):
                value = derivative_power_function(p, gamma)(t)
                assert value == pytest.approx(gamma_fn(gamma + 1.0), rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            derivative_power_function(PowerFunction(1.0, -0.5), 0.6)
        with pytest.raises(DomainError):
            derivative_power_function(PowerFunction(1.0, 2.0), 1.2)
        with pytest.raises(DomainError):
            derivative_power_function(PowerFunction(1.0, 2.0), 0.5)(0.0)


def _assert_history_block_adds(weights, dense, values, lo, mid, hi):
    """``history_block`` adds the dense product to rows ``[mid, hi)`` only.

    The target rows start as the product times random factors in [0.5, 1.5]:
    nonzero, so a merge that overwrites them instead of adding to them fails,
    and of the product's size, so the rounding of the sum stays far inside
    the tolerance on the product.  Every other row must come back bitwise
    unchanged.  ``values`` is left as it was.
    """
    expected = dense[mid:hi, lo:mid] @ values[lo:mid]
    saved = values.copy()
    values[mid:hi] = expected * np.random.default_rng(mid).uniform(0.5, 1.5, expected.shape)
    before = values.copy()
    weights.history_block(values, lo, mid, hi)
    added = values[mid:hi] - before[mid:hi]
    assert np.max(np.abs(added - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert np.array_equal(values[:mid], before[:mid])
    assert np.array_equal(values[hi:], before[hi:])
    values[:] = saved


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
            totals = np.tril(_four_corner(grid, alpha)).sum(axis=1)
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

    def test_history_block_matches_dense_product(self):
        rng = np.random.default_rng(23)
        grid = TemporalGrid.uniform(100, 1.0)
        values = rng.uniform(-1.0, 1.0, size=(100, 5))
        for alpha in (0.02, 0.5, 0.98):
            weights = temporal_weights(grid, alpha)
            dense = weights.dense()
            for lo, mid, hi in ((0, 50, 100), (0, 1, 2), (37, 68, 100), (10, 41, 73)):
                _assert_history_block_adds(weights, dense, values, lo, mid, hi)

    def test_block_matches_dense_slices(self):
        J = 40
        grid = TemporalGrid.uniform(J, 1.0)
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
    @pytest.mark.parametrize("cols", [3, CHUNK // 1100, 70])
    def test_history_block_on_both_sides_of_dense_merge(self, cols):
        assert 512 <= DENSE_MERGE < 1100
        grid = TemporalGrid.uniform(1100, 1.0)
        weights = temporal_weights(grid, 0.8)
        dense = weights.dense()
        values = np.random.default_rng(41).uniform(-1.0, 1.0, size=(1100, cols))
        for lo, mid, hi in ((0, 550, 1100), (0, 256, 512), (37, 600, 1100)):
            _assert_history_block_adds(weights, dense, values, lo, mid, hi)

    def test_dense_merge_block_fits_one_working_buffer(self):
        # a dense merge of n <= DENSE_MERGE steps forms at most (n / 2)^2 values
        assert DENSE_MERGE ** 2 // 4 <= CHUNK

    def test_graded_grid_rejected(self):
        grid = TemporalGrid((np.arange(41) / 40) ** 2)
        with pytest.raises(DomainError, match="uniform"):
            temporal_weights(grid, 0.4)

    @pytest.mark.parametrize("num_steps", [10000, 100000])
    def test_uniform_grid_with_rounded_nodes_accepted(self, num_steps):
        # the nodes k / J of a J that is not a power of two are rounded, so
        # the steps differ by up to an ulp of T: far more than 1e-12 tau
        grid = TemporalGrid.uniform(num_steps)
        assert np.ptp(grid.tau) > 1e-12 * grid.tau[0]
        weights = temporal_weights(grid, 0.5)
        assert weights.block(slice(0, 2), slice(0, 2))[1, 0] < 0.0

    def test_dense_over_budget_rejected_before_allocating(self, monkeypatch):
        def no_block(self, rows, cols):
            raise AssertionError("block evaluated before the budget check")

        J = 8192
        assert J * J > BUDGET
        tracemalloc.start()
        try:
            weights = temporal_weights(TemporalGrid.uniform(J), 0.5)
            monkeypatch.setattr(TemporalWeightMatrix, "block", no_block)
            with pytest.raises(BudgetError, match="budget"):
                weights.dense()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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


@pytest.mark.parametrize("pairing", [derivative_pairing_pwc, fractional_integral_pairing_pwc,
                                     fractional_seminorm_pwc])
def test_over_budget_pairing_rejected_before_allocating(monkeypatch, pairing):
    def no_powers(x, mu):
        raise AssertionError("node differences raised to a power before the budget check")

    J = 4096
    assert (J + 1) ** 2 > BUDGET
    grid = TemporalGrid.uniform(J)
    values = np.ones(J)
    monkeypatch.setattr(fracops, "_plus_power", no_powers)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="budget"):
            pairing(grid, values, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestPairingWeightEquivalence:
    def test_derivative_pairing_realizes_weight_matrix(self):
        # the half-order left/right pairing of a piecewise constant equals its
        # energy under the direct weight matrix; this is the identity that
        # justifies using the weight matrix as the scheme's bilinear form
        rng = np.random.default_rng(11)
        nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, size=6))])
        grid = TemporalGrid(nodes)
        for alpha in (0.3, 0.6, 0.9):
            dense_weights = np.tril(_four_corner(grid, alpha))
            for values in rng.uniform(-1.0, 1.0, size=(5, 6)):
                pairing = derivative_pairing_pwc(grid, values, alpha / 2.0)
                assert pairing == pytest.approx(values @ dense_weights @ values,
                                                rel=1e-12)


class TestPointwiseEvaluators:
    def test_left_integral_matches_power_rule_on_first_interval(self):
        grid = TemporalGrid.uniform(4, 1.0)
        values = np.array([2.0, 0.0, 0.0, 0.0])
        t = np.array([0.1, 0.2])
        expected = 2.0 * t ** 0.5 / gamma_fn(1.5)
        assert np.allclose(left_integral(grid, values, 0.5, t), expected,
                           rtol=1e-13)

    def test_right_integral_mirror(self):
        # the right integral at t is the left integral of the reversed values
        # at 1 - t, and a uniform grid is its own mirror image
        grid = TemporalGrid.uniform(4, 1.0)
        values = np.array([0.0, 0.0, 0.0, 3.0])
        t = np.array([0.8, 0.9])
        expected = 3.0 * (1.0 - t) ** 0.5 / gamma_fn(1.5)
        mirrored = left_integral(grid, values[::-1], 0.5, 1.0 - t)
        assert np.allclose(mirrored, expected, rtol=1e-13)

    def test_integral_pairing_positive(self):
        grid = TemporalGrid.uniform(6, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            values = rng.uniform(-1.0, 1.0, size=6)
            pairing = fractional_integral_pairing_pwc(grid, values, 0.3)
            assert pairing > 0.0
