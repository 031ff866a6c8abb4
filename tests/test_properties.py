import functools
from collections import Counter

import numpy as np
import pytest
import scipy.special
from scipy.special import roots_jacobi

from fracstep import fem1d, fracops, properties
from fracstep.fracops import TemporalGrid
from fracstep.properties import run_property_suite

from quadrature_oracle import integral_norm_sq


def test_full_suite_passes_default_seed():
    results = run_property_suite()
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failed properties: {failed}"


def test_suite_is_seed_deterministic():
    first = run_property_suite(seed=7)
    second = run_property_suite(seed=7)
    assert [(r.name, r.passed, r.detail) for r in first] == \
        [(r.name, r.passed, r.detail) for r in second]


def test_tampered_gamma_is_detected(tampered_gamma):
    # corrupting the gamma constant must break the oracle cross-checks; the
    # coercivity pairing consults the quadrature oracle, which does not use
    # the package gamma, so the corruption cannot cancel out
    with tampered_gamma(1e-4):
        results = {r.name: r for r in run_property_suite(seed=3)}
    assert not results["coercivity-pairing"].passed
    assert not results["closed-forms-vs-oracle"].passed
    # and the suite recovers once the corruption is removed
    clean = {r.name: r for r in run_property_suite(seed=3)}
    assert clean["coercivity-pairing"].passed


@pytest.mark.parametrize("seed", [36, 76, 120])
def test_suite_passes_seeds_with_cancelling_duality_draws(seed):
    # seeds whose random polynomial pairings once cancelled to near zero
    failed = [r.name for r in run_property_suite(seed) if not r.passed]
    assert not failed, f"failed properties: {failed}"


@pytest.fixture
def rule_spy(monkeypatch):
    """Record, per property, every Gauss-Jacobi rule the suite computes."""
    computed = {}
    current = [None]

    def spy(n, alpha, beta):
        computed.setdefault(current[0], []).append((n, alpha, beta))
        return roots_jacobi(n, alpha, beta)

    def labelled(prop):
        @functools.wraps(prop)
        def run(rng):
            current[0] = prop.__name__
            return prop(rng)
        return run

    monkeypatch.setattr(scipy.special, "roots_jacobi", spy)
    monkeypatch.setattr(properties, "_SUITE",
                        tuple(labelled(prop) for prop in properties._SUITE))
    return computed


def test_second_suite_run_computes_as_many_rules(rule_spy):
    # nothing carries over between runs, so a repeated run pays what a single
    # run pays
    run_property_suite()
    first = {name: Counter(keys) for name, keys in rule_spy.items()}
    rule_spy.clear()
    run_property_suite()
    second = {name: Counter(keys) for name, keys in rule_spy.items()}
    assert first and second == first


def test_no_rule_above_order_32(rule_spy):
    # a cost guard that counts instead of timing: the adaptive loops stop by
    # order 32 on the default seed, and a bare weight needs no rule at all
    run_property_suite()
    orders = {name: max(n for n, _, _ in keys) for name, keys in rule_spy.items()}
    assert max(orders.values()) <= 32, orders


def test_only_the_oracle_properties_compute_rules(rule_spy, monkeypatch):
    # a cost guard that counts instead of timing: the two-sided bound's norm
    # is a closed form and the coercivity pairing integrates bare weights
    # only, so neither computes a rule; each smooth four-corner piece of the
    # closed forms converges on the Gauss-Legendre rules of orders 8 and 16
    pieces = []
    integrate = properties.singular_integral

    def counted(*args, **kwargs):
        if kwargs.get("smooth") is not None:
            pieces.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(properties, "singular_integral", counted)
    run_property_suite()
    assert list(rule_spy) == ["prop_closed_forms_vs_oracle"]
    assert len(pieces) == 5
    assert rule_spy["prop_closed_forms_vs_oracle"] == [(8, 0.0, 0.0), (16, 0.0, 0.0)] * 5


def _narrowest_gap_grids():
    # every placement of the shortest step _random_grid draws (0.2 against
    # 1.0), on each grid size the two-sided bound draws
    for num_steps in (3, 4, 5):
        for short in range(num_steps):
            steps = np.ones(num_steps)
            steps[short] = 0.2
            yield TemporalGrid(np.concatenate([[0.0], np.cumsum(steps)]) / steps.sum())


def test_two_sided_norm_closed_form_matches_quadrature(monkeypatch):
    # the draws repeat their exponents, so one cache of rules spares most
    # rebuilds (about 0.2 s of 0.4 s)
    monkeypatch.setattr(scipy.special, "roots_jacobi",
                        functools.lru_cache(maxsize=None)(roots_jacobi))
    rng = np.random.default_rng(2026)
    cases = [(grid, gamma) for grid in _narrowest_gap_grids() for gamma in (0.05, 0.45)]
    cases += [(properties._random_grid(rng, max_intervals=5), rng.uniform(0.05, 0.45))
              for _ in range(300 - len(cases))]
    worst = 0.0
    for grid, gamma in cases:
        values = rng.uniform(-2.0, 2.0, size=grid.num_steps)
        closed = properties._pwc_integral_norm_sq(grid, values, gamma)
        oracle = integral_norm_sq(grid, values, gamma)
        worst = max(worst, abs(closed - oracle) / abs(oracle))
    print(f"largest relative difference {worst:.3e} over {len(cases)} draws")
    assert worst <= 1e-12


def test_pair_indices_are_the_upper_triangle():
    for size in range(1, 9):
        pairs = properties._pair_indices(size)
        for index, expected in zip(pairs, np.triu_indices(size, 1)):
            assert index.dtype == expected.dtype
            assert np.array_equal(index, expected)
            assert not index.flags.writeable
        assert properties._pair_indices(size) is pairs


def _solve_march(grid, mesh, alpha, loads):
    # the naive march with one dense solve per step, the reference for its inverses
    weights = fracops.temporal_weights(grid, alpha).dense()
    mass = fem1d.assemble_mass(mesh).to_dense()
    stiffness = fem1d.assemble_stiffness(mesh).to_dense()
    values = np.zeros_like(loads)
    for k in range(grid.num_steps):
        rhs = loads[k] - mass @ (weights[k, :k] @ values[:k])
        values[k] = np.linalg.solve(weights[k, k] * mass + grid.tau[k] * stiffness, rhs)
    return values


@pytest.mark.parametrize("num_steps, num_cells, alpha", [
    (65, 4, 0.01), (160, 4, 0.01), (65, 4, 0.99), (160, 4, 0.99), (16, 8, 0.5),
])
def test_naive_march_matches_per_step_solves(num_steps, num_cells, alpha):
    grid = TemporalGrid.uniform(num_steps)
    mesh = fem1d.Mesh1D(num_cells)
    loads = np.random.default_rng(num_steps).uniform(-1.0, 1.0,
                                                     size=(num_steps, mesh.n_interior))
    naive = properties._naive_march(grid, mesh, alpha, loads)
    reference = _solve_march(grid, mesh, alpha, loads)
    assert np.max(np.abs(naive - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_toeplitz_reads_one_dense_block_per_alpha(monkeypatch):
    # the shift comparison reads the dense matrix the property already holds
    calls = []
    block = fracops.TemporalWeightMatrix.block

    def spy(self, rows, cols):
        calls.append((rows, cols))
        return block(self, rows, cols)

    monkeypatch.setattr(fracops.TemporalWeightMatrix, "block", spy)
    result = properties.prop_toeplitz(np.random.default_rng(0))
    assert result.passed
    assert calls == [(slice(None), slice(None))] * 3
