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


@pytest.fixture
def no_rules(monkeypatch):
    """Fail the test at the first Gauss-Jacobi rule the integrators build."""
    def refuse(n, alpha, beta):
        pytest.fail(f"rule ({n}, {alpha}, {beta}) built where none is needed")

    monkeypatch.setattr(quadrature, "roots_jacobi", refuse)


def test_domain_errors(no_rules):
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
            func(0.0, 1.0, smooth=np.cos, **kwargs)


def test_budget_exhaustion_raises(monkeypatch):
    # far too oscillatory for the allotted node budget
    monkeypatch.setattr(quadrature, "_MAX_ORDER", 64)
    with pytest.raises(QuadratureError):
        singular_integral(0.0, 1.0, smooth=lambda t: np.sin(5e4 * t))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_integrand_raises_at_the_first_order(bad, monkeypatch):
    # a non-finite estimate never converges, so the loop must stop at the
    # first order, not double up to _MAX_ORDER and report "no convergence"
    built = []

    def spy(n, alpha, beta):
        built.append(n)
        return scipy.special.roots_jacobi(n, alpha, beta)

    monkeypatch.setattr(quadrature, "roots_jacobi", spy)
    with pytest.raises(QuadratureError, match="not finite"):
        singular_integral(0.0, 1.0, p=-0.5, smooth=lambda t: np.where(t > 0.5, bad, 1.0))
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
    # a Gauss-Jacobi rule's weights sum to the weight's integral, so the
    # one-point and the 200-point rule give what both integrators return
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.uniform(-0.9, 2.0)
        q = rng.uniform(-0.9, 2.0)
        a = rng.uniform(-2.0, 2.0)
        b = a + rng.uniform(0.1, 3.0)
        half = 0.5 * (b - a)
        one, many = (half ** (p + q + 1.0) * scipy.special.roots_jacobi(n, q, p)[1].sum()
                     for n in (1, 200))
        assert one == pytest.approx(many, rel=1e-14)
        for func in (singular_integral, fixed_order_integral):
            assert func(a, b, p=p, q=q) == pytest.approx(one, rel=1e-14)
        closed = ((b - a) ** (p + q + 1.0) * scipy.special.gamma(p + 1.0)
                  * scipy.special.gamma(q + 1.0) / scipy.special.gamma(p + q + 2.0))
        assert one == pytest.approx(closed, rel=1e-13)


@pytest.mark.parametrize("p, q", [(-0.3, 0.7), (1.5, -0.8), (-0.4, -0.4), (0.6, 0.6),
                                  (0.0, 0.0)],
                         ids=["jacobi", "jacobi-swapped", "gegenbauer-neg",
                              "gegenbauer-pos", "legendre"])
def test_bare_weight_builds_no_rule_and_matches_every_rule_sum(p, q, no_rules):
    # p != q goes through scipy's Jacobi path, p == q != 0 its Gegenbauer
    # path and p == q == 0 its Legendre path; each forms its weights' sum
    # on its own, and the integrators' one value agrees with all of them
    a, b = 0.25, 1.75
    half = 0.5 * (b - a)
    values = [func(a, b, p=p, q=q) for func in (singular_integral, fixed_order_integral)]
    assert values[0] == values[1]
    for n in (1, 8, 16, 200):
        rule_sum = half ** (p + q + 1.0) * scipy.special.roots_jacobi(n, q, p)[1].sum()
        assert values[0] == pytest.approx(rule_sum, rel=1e-14), n


def test_bare_weight_beyond_the_beta_range(no_rules):
    # above p + q = 1000 the weight's integral goes through betaln, as in
    # roots_jacobi, where 2^(p+q+1) and B(p+1, q+1) alone would not be finite
    p, q = 700.0, 400.5
    value = fixed_order_integral(-1.0, 1.0, p=p, q=q)
    assert value == pytest.approx(scipy.special.roots_jacobi(4, q, p)[1].sum(), rel=1e-12)


@pytest.mark.parametrize("func", [singular_integral, fixed_order_integral])
def test_bare_weight_integral_that_overflows_raises(func, no_rules):
    # half^2 = 1.44e308 and mu0 = pi / 2 are finite, their product is not
    with pytest.raises(QuadratureError, match="weight's integral is not finite"):
        func(0.0, 2.4e154, p=0.5, q=0.5)


@pytest.mark.parametrize("smooth", [None, np.cos], ids=["bare", "smooth"])
@pytest.mark.parametrize("func", [singular_integral, fixed_order_integral])
def test_overflowing_interval_scale_raises(func, smooth):
    # ((b - a) / 2)^(p+q+1) = 2.5e399 is beyond a float: the float power
    # raises OverflowError, where a float product would give inf
    with pytest.raises(QuadratureError, match="not finite"):
        func(0.0, 1e200, p=1.0, q=1.0, smooth=smooth)

