import functools

import numpy as np
import pytest
import scipy.special

from fracstep import quadrature
from fracstep.errors import DomainError, QuadratureError
from fracstep.quadrature import fixed_order_integral, singular_integral

# frozen oracle self-check: int_0^1 t^-1/4 (1-t)^-1/4 dt = Gamma(3/4)^2/Gamma(3/2)
BETA_QUARTER = 1.6944261695879577


def test_unit_integral():
    assert singular_integral(0.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_inverse_sqrt_singularity():
    assert singular_integral(0.0, 1.0, p=-0.5) == pytest.approx(2.0, rel=1e-12)


def test_beta_identity_cross_check():
    value = singular_integral(0.0, 1.0, p=-0.25, q=-0.25)
    assert value == pytest.approx(BETA_QUARTER, rel=1e-12)
    closed = scipy.special.gamma(0.75) ** 2 / scipy.special.gamma(1.5)
    assert value == pytest.approx(closed, rel=1e-12)


def test_smooth_factor_polynomial():
    # int_0^2 t^2 dt = 8/3 with the polynomial passed as the smooth part
    value = singular_integral(0.0, 2.0, smooth=lambda t: t ** 2)
    assert value == pytest.approx(8.0 / 3.0, rel=1e-13)


def test_shifted_interval_with_both_exponents():
    # int_1^3 (t-1)^{-0.3} (3-t)^{-0.6} e^t dt against a dense reference rule
    reference = fixed_order_integral(1.0, 3.0, p=-0.3, q=-0.6,
                                     smooth=np.exp, order=600)
    value = singular_integral(1.0, 3.0, p=-0.3, q=-0.6, smooth=np.exp)
    assert value == pytest.approx(reference, rel=1e-10)


def test_absolute_floor_for_zero_integrands():
    value = singular_integral(0.0, 1.0, smooth=lambda t: 0.0 * t, atol=1e-14)
    assert abs(value) <= 1e-14


def _no_rules(n, alpha, beta):
    pytest.fail(f"rule ({n}, {alpha}, {beta}) built for input that must be rejected")


def test_domain_errors():
    with pytest.raises(DomainError):
        singular_integral(1.0, 1.0)
    with pytest.raises(DomainError):
        singular_integral(2.0, 1.0)
    with pytest.raises(DomainError):
        singular_integral(0.0, 1.0, p=-1.0)
    with pytest.raises(DomainError):
        singular_integral(0.0, 1.0, q=-1.5)
    # rejected before any rule is built: a NaN exponent used to pass the
    # p <= -1 test and fail inside scipy, and a bad order failed inside scipy
    for func, kwargs in [
            (singular_integral, {"p": np.nan}), (singular_integral, {"q": np.nan}),
            (singular_integral, {"p": np.inf}), (singular_integral, {"atol": np.inf}),
            (singular_integral, {"atol": -1e-14}), (fixed_order_integral, {"order": 0}),
            (fixed_order_integral, {"order": -3}), (fixed_order_integral, {"order": 2.5}),
            (fixed_order_integral, {"p": np.nan}), (fixed_order_integral, {"q": -np.inf})]:
        with pytest.raises(DomainError):
            func(0.0, 1.0, rules=_no_rules, **kwargs)


def test_budget_exhaustion_raises(monkeypatch):
    # far too oscillatory for the allotted node budget
    monkeypatch.setattr(quadrature, "_MAX_ORDER", 64)
    with pytest.raises(QuadratureError):
        singular_integral(0.0, 1.0, smooth=lambda t: np.sin(5e4 * t))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_integrand_raises_at_the_first_order(bad):
    # a non-finite estimate never converges, so the loop must stop at the
    # first order, not double up to _MAX_ORDER and report "no convergence"
    built = []

    def rules(n, alpha, beta):
        built.append(n)
        return scipy.special.roots_jacobi(n, alpha, beta)

    with pytest.raises(QuadratureError, match="not finite"):
        singular_integral(0.0, 1.0, p=-0.5,
                          smooth=lambda t: np.where(t > 0.5, bad, 1.0), rules=rules)
    assert built == [quadrature._MIN_ORDER]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fixed_order_non_finite_integrand_raises(bad):
    with pytest.raises(QuadratureError, match="not finite"):
        fixed_order_integral(0.0, 1.0, smooth=lambda t: np.where(t > 0.5, bad, 1.0),
                             order=16)


def test_fixed_order_matches_adaptive_on_smooth_data():
    adaptive = singular_integral(0.0, 1.0, p=0.3, smooth=lambda t: np.cos(t))
    fixed = fixed_order_integral(0.0, 1.0, p=0.3, smooth=lambda t: np.cos(t),
                                 order=128)
    assert fixed == pytest.approx(adaptive, rel=1e-12)


def test_gauss_jacobi_moment_exactness():
    # weight moments reproduce Beta values for a spread of exponents
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.uniform(-0.9, 2.0)
        q = rng.uniform(-0.9, 2.0)
        value = singular_integral(0.0, 1.0, p=p, q=q)
        closed = (scipy.special.gamma(p + 1.0) * scipy.special.gamma(q + 1.0)
                  / scipy.special.gamma(p + q + 2.0))
        assert value == pytest.approx(closed, rel=1e-10)


def test_bare_weight_is_exact_at_every_order():
    # a Gauss-Jacobi rule's weights sum to the weight's integral, so with no
    # smooth factor the one-point rule already gives what order 200 gives
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.uniform(-0.9, 2.0)
        q = rng.uniform(-0.9, 2.0)
        a = rng.uniform(-2.0, 2.0)
        b = a + rng.uniform(0.1, 3.0)
        one = fixed_order_integral(a, b, p=p, q=q, order=1)
        assert one == pytest.approx(
            fixed_order_integral(a, b, p=p, q=q, order=200), rel=1e-14)
        closed = ((b - a) ** (p + q + 1.0) * scipy.special.gamma(p + 1.0)
                  * scipy.special.gamma(q + 1.0) / scipy.special.gamma(p + q + 2.0))
        assert one == pytest.approx(closed, rel=1e-13)


# the integrals of the tests above, as (function, arguments, keywords)
_CASES = [
    (singular_integral, (0.0, 1.0), {}),
    (singular_integral, (0.0, 1.0), {"p": -0.5}),
    (singular_integral, (0.0, 1.0), {"p": -0.25, "q": -0.25}),
    (singular_integral, (0.0, 2.0), {"smooth": lambda t: t ** 2}),
    (fixed_order_integral, (1.0, 3.0), {"p": -0.3, "q": -0.6, "smooth": np.exp,
                                        "order": 600}),
    (singular_integral, (1.0, 3.0), {"p": -0.3, "q": -0.6, "smooth": np.exp}),
    (singular_integral, (0.0, 1.0), {"smooth": lambda t: 0.0 * t, "atol": 1e-14}),
    (singular_integral, (0.0, 1.0), {"p": 0.3, "smooth": np.cos}),
    (fixed_order_integral, (0.0, 1.0), {"p": 0.3, "smooth": np.cos, "order": 128}),
]


def test_shared_rule_table_gives_the_default_values():
    # one table serves every case twice; its arrays are read-only, so an
    # integrator that wrote into a rule it was handed would raise here
    @functools.lru_cache(maxsize=None)
    def frozen_rules(n, alpha, beta):
        x, w = scipy.special.roots_jacobi(n, alpha, beta)
        x.flags.writeable = False
        w.flags.writeable = False
        return x, w

    expected = [func(*args, **kwargs) for func, args, kwargs in _CASES]
    for _ in range(2):
        shared = [func(*args, rules=frozen_rules, **kwargs)
                  for func, args, kwargs in _CASES]
        assert shared == expected
    assert frozen_rules.cache_info().hits > 0
