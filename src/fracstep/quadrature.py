"""Quadrature oracle for weakly singular integrands.

Ground-truth generator for every frozen expected value in the test suite:
integrals of the form

    int_a^b (t - a)^p (b - t)^q f(t) dt,        p, q > -1,  f smooth,

are computed with Gauss-Jacobi rules of increasing order until two
consecutive estimates agree to a relative tolerance.  The default tolerance
1e-10 sits one order below the 1e-9 acceptance threshold for the closed
forms, so oracle error never masks a kernel bug.

This module is intentionally independent of :mod:`fracstep.gammafn`: nodes
and weights come from scipy, giving the dual evaluation route the property
checks rely on.

Both integrators take the rule source as a keyword ``rules``, a callable
with the signature of :func:`scipy.special.roots_jacobi` (the default).  A
caller that evaluates many integrals with the same exponents can pass a
table of rules, e.g. ``functools.lru_cache(maxsize=None)(roots_jacobi)``, so
that each ``(n, alpha, beta)`` is computed once; the integrators never write
into the returned arrays, so a table may hand the same ones out again.  A
table belongs to one caller and lives only as long as that caller's work
(one property of the suite, say): a process-wide table would grow without
bound and would make a repeated run look faster than any single run is.
"""

import math
import numbers

import numpy as np
from scipy.special import roots_jacobi

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


def _finite(estimate: float, n: int, a: float, b: float) -> float:
    """``estimate``, or ``QuadratureError`` if the order-``n`` rule gave no finite value."""
    if not math.isfinite(estimate):
        raise QuadratureError(f"estimate is {estimate} at order {n} on ({a}, {b}): the "
                              "integrand is not finite at a node")
    return estimate


def singular_integral(a, b, p=0.0, q=0.0, smooth=None, atol=0.0,
                      rules=roots_jacobi):
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
        Vectorized factor evaluated at the quadrature nodes.  Defaults to 1.
        It must be smooth on ``[a, b]``; endpoint singularities belong in
        ``p``/``q``.
    atol : float
        Absolute agreement floor, finite and nonnegative; needed when the
        integral itself can be zero up to roundoff (a relative test never
        terminates on noise).
    rules : callable
        ``rules(n, alpha, beta)`` returns the nodes and weights of the
        ``n``-point Gauss-Jacobi rule, as :func:`scipy.special.roots_jacobi`.

    Returns
    -------
    float
    """
    a, b = _check_interval(a, b, p, q)
    if not (math.isfinite(atol) and atol >= 0.0):
        raise DomainError(f"atol must be finite and nonnegative, got {atol}")

    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    scale = half ** (p + q + 1.0)

    previous = None
    n = _MIN_ORDER
    while n <= _MAX_ORDER:
        # roots_jacobi weight is (1-x)^alpha (1+x)^beta; t-a maps to (1+x)
        x, w = rules(n, q, p)
        t = mid + half * x
        vals = w if smooth is None else w * np.asarray(smooth(t), dtype=float)
        estimate = _finite(scale * float(np.sum(vals)), n, a, b)
        if previous is not None:
            tol = max(DEFAULT_RTOL * max(abs(estimate), abs(previous)), atol, 1e-300)
            if abs(estimate - previous) <= tol:
                return estimate
        previous = estimate
        n *= 2
    raise QuadratureError(
        f"no convergence to rtol={DEFAULT_RTOL} within {_MAX_ORDER} nodes on ({a}, {b})")


def fixed_order_integral(a, b, p=0.0, q=0.0, smooth=None, order=256,
                         rules=roots_jacobi):
    """Single Gauss-Jacobi rule of the given order, no convergence loop.

    Used where the caller differentiates the result numerically and needs a
    noise floor at machine level rather than an adaptive stopping test.
    ``order`` must be a positive integer; ``rules`` and the non-finite
    check are as in :func:`singular_integral`.

    A Gauss-Jacobi rule integrates its bare weight exactly at every order
    (its weights sum to the weight's integral), so ``order`` matters only
    with a ``smooth`` factor: without one, ``order=1`` is exact.
    """
    a, b = _check_interval(a, b, p, q)
    if not isinstance(order, numbers.Integral) or order < 1:
        raise DomainError(f"order must be a positive integer, got {order!r}")
    half = 0.5 * (b - a)
    x, w = rules(order, q, p)
    t = 0.5 * (a + b) + half * x
    vals = w if smooth is None else w * np.asarray(smooth(t), dtype=float)
    return _finite(half ** (p + q + 1.0) * float(np.sum(vals)), order, a, b)
