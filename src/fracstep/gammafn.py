"""Gamma function for the package's closed forms, from the standard library.

All closed-form fractional-calculus kernels in this package express their
constants through ``gamma_fn``, which is ``math.gamma`` (CPython's own
Lanczos evaluation in C).  The quadrature oracle never calls it: the
oracle's gamma constants come from ``scipy.special.gamma`` (Cephes), a
separate implementation, so a defect in either gamma shows up as a
closed-form-vs-quadrature mismatch in the property suite instead of
cancelling out.
"""

import math


def gamma_fn(x: float) -> float:
    """Evaluate the gamma function at a real argument.

    Poles at 0, -1, -2, ... raise ``ValueError``.
    """
    return math.gamma(x)
