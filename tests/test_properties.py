import functools
from collections import Counter

import numpy as np
import pytest
from scipy.special import roots_jacobi

from fracstep import fracops, properties
from fracstep.properties import run_property_suite


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

    monkeypatch.setattr(properties, "roots_jacobi", spy)
    monkeypatch.setattr(properties, "_SUITE",
                        tuple(labelled(prop) for prop in properties._SUITE))
    return computed


def test_no_rule_computed_twice_within_one_property(rule_spy):
    results = run_property_suite()
    assert all(r.passed for r in results)
    assert rule_spy, "the suite computed no rule through its tables"
    repeated = {name: [key for key, count in Counter(keys).items() if count > 1]
                for name, keys in rule_spy.items()}
    assert not any(repeated.values()), f"rules computed twice: {repeated}"


def test_second_suite_run_computes_as_many_rules(rule_spy):
    # the tables live for one property call, so nothing carries over between
    # runs and a repeated run pays what a single run pays
    run_property_suite()
    first = {name: Counter(keys) for name, keys in rule_spy.items()}
    rule_spy.clear()
    run_property_suite()
    second = {name: Counter(keys) for name, keys in rule_spy.items()}
    assert first and second == first


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
