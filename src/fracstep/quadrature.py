"""Quadrature oracle for weakly singular integrands.

Ground-truth generator for every frozen expected value in the test suite:
integrals of the form

    int_a^b (t - a)^p (b - t)^q f(t) dt,        p, q > -1,  f smooth,

are computed with Gauss-Jacobi rules of increasing order until two
consecutive estimates agree to a relative tolerance.  The default tolerance
1e-10 sits one order below the 1e-9 acceptance threshold for the closed
forms, so oracle error never masks a kernel bug.  With no smooth factor the
integrand is the bare Jacobi weight, whose integral is a Beta value; both
integrators return it directly and build no rule.  It is formed as
:func:`scipy.special.roots_jacobi` forms the sum it scales its weights to
(Golub and Welsch, Math. Comp. 23, 1969), so every rule of that weight gives
it to rounding.

This module is intentionally independent of :mod:`fracstep.gammafn`: nodes,
weights and the Beta values come from scipy, giving the dual evaluation
route the property checks rely on.
"""

import math
import numbers

import numpy as np
from scipy.special import beta, betaln, roots_jacobi

from .errors import DomainError, QuadratureError

DEFAULT_RTOL = 1e-10
_MIN_ORDER = 8
_MAX_ORDER = 4096


def _check_interval(a, b, p, q):
    """Endpoints as floats; ``DomainError`` unless ``a < b`` and ``p, q`` are
    finite and above -1 (a NaN exponent would pass a bare ``<= -1`` test)."""
    a = float(a)
    b = float(b)
    if not b > a:
        raise DomainError(f"empty or inverted interval ({a}, {b})")
    if not (math.isfinite(p) and math.isfinite(q) and p > -1.0 and q > -1.0):
        raise DomainError(
            f"endpoint exponents must be finite and exceed -1, got p={p}, q={q}")
    return a, b


def _finite(total: float, n: int | None, a: float, b: float, p: float, q: float) -> float:
    """``total``, an integral over ``(-1, 1)``, scaled to ``(a, b)``; ``QuadratureError``
    unless finite (``n``: the rule's order, ``None`` for the bare weight)."""
    try:
        estimate = (0.5 * (b - a)) ** (p + q + 1.0) * total
    except OverflowError:  # a float power raises where a float product gives inf
        estimate = math.inf
    if n is None and not math.isfinite(estimate):
        raise QuadratureError(f"estimate is {estimate} on ({a}, {b}): the weight's "
                              "integral is not finite")
    if not math.isfinite(estimate):
        raise QuadratureError(f"estimate is {estimate} at order {n} on ({a}, {b}): the "
                              "integrand at a node, or the integral, is not finite")
    return estimate


def _weight_integral(a: float, b: float, p: float, q: float) -> float:
    """``int_a^b (t-a)^p (b-t)^q dt``, the bare weight's integral.

    ``half^(p+q+1) mu0`` with ``mu0 = 2^(p+q+1) B(p+1, q+1)``, the integral
    of ``(1-x)^q (1+x)^p`` over ``(-1, 1)``, formed as ``roots_jacobi`` forms
    it: through ``betaln`` once ``p + q`` exceeds 1000, where ``2^(p+q+1)``
    and ``B`` would overflow and underflow.
    """
    if p + q <= 1000.0:
        mu0 = 2.0 ** (p + q + 1.0) * float(beta(q + 1.0, p + 1.0))
    else:
        mu0 = float(np.exp((p + q + 1.0) * np.log(2.0) + betaln(q + 1.0, p + 1.0)))
    return _finite(mu0, None, a, b, p, q)


def _rule_estimate(a: float, b: float, p: float, q: float, smooth, n: int) -> float:
    """The order-``n`` rule's integral of ``(t-a)^p (b-t)^q smooth(t)``, finite."""
    x, w = roots_jacobi(n, q, p)  # its weight is (1-x)^q (1+x)^p: t-a maps to (1+x)
    vals = w * np.asarray(smooth(0.5 * (a + b) + 0.5 * (b - a) * x), dtype=float)
    return _finite(float(np.sum(vals)), n, a, b, p, q)


def singular_integral(a, b, p=0.0, q=0.0, smooth=None, atol=0.0):
    """Integrate ``(t-a)^p (b-t)^q * smooth(t)`` over ``(a, b)``.

    Rule orders double from ``_MIN_ORDER`` until two consecutive estimates
    agree to ``DEFAULT_RTOL``; ``QuadratureError`` once ``_MAX_ORDER`` nodes
    are exceeded, or at the first order whose estimate is not finite (a NaN
    or infinite integrand never converges).

    Parameters
    ----------
    a, b : float
        Integration endpoints, ``a < b``.
    p, q : float
        Endpoint exponents at ``a`` and ``b``; both finite and above -1.
    smooth : callable, optional
        Vectorized factor evaluated at the quadrature nodes.  Without one
        the integral is the weight's own, returned with no rule built.  It
        must be smooth on ``[a, b]``; endpoint singularities belong in
        ``p``/``q``.
    atol : float
        Absolute agreement floor, finite and nonnegative; needed when the
        integral itself can be zero up to roundoff (a relative test never
        terminates on noise).

    Returns
    -------
    float
    """
    a, b = _check_interval(a, b, p, q)
    if not (math.isfinite(atol) and atol >= 0.0):
        raise DomainError(f"atol must be finite and nonnegative, got {atol}")
    if smooth is None:
        return _weight_integral(a, b, p, q)

    previous = None
    n = _MIN_ORDER
    while n <= _MAX_ORDER:
        estimate = _rule_estimate(a, b, p, q, smooth, n)
        if previous is not None:
            tol = max(DEFAULT_RTOL * max(abs(estimate), abs(previous)), atol, 1e-300)
            if abs(estimate - previous) <= tol:
                return estimate
        previous = estimate
        n *= 2
    raise QuadratureError(
        f"no convergence to rtol={DEFAULT_RTOL} within {_MAX_ORDER} nodes on ({a}, {b})")


def fixed_order_integral(a, b, p=0.0, q=0.0, smooth=None, order=256):
    """Single Gauss-Jacobi rule of the given order, no convergence loop.

    Used where the caller differentiates the result numerically and needs a
    noise floor at machine level rather than an adaptive stopping test.
    ``order`` must be a positive integer; the non-finite check is as in
    :func:`singular_integral`.

    A Gauss-Jacobi rule integrates its bare weight exactly at every order
    (its weights sum to the weight's integral), so ``order`` matters only
    with a ``smooth`` factor: without one, the weight's integral is
    returned, as in :func:`singular_integral`, and no rule is built.
    """
    a, b = _check_interval(a, b, p, q)
    if not isinstance(order, numbers.Integral) or order < 1:
        raise DomainError(f"order must be a positive integer, got {order!r}")
    if smooth is None:
        return _weight_integral(a, b, p, q)
    return _rule_estimate(a, b, p, q, smooth, order)
