"""Fractional integrals of piecewise constants by the quadrature oracle.

The slow route that the property suite's closed-form norm is checked
against: pointwise left integrals summed interval by interval, and the
squared norm by singularity splitting and adaptive Gauss-Jacobi rules.
Nothing here calls :mod:`fracstep.fracops` or the package's gamma.
"""

import numpy as np
from scipy.special import gamma as scipy_gamma

from fracstep.quadrature import singular_integral


def left_integral(grid, values, gamma, t) -> np.ndarray:
    """Left fractional integral of a piecewise constant at ``t``."""
    t = np.asarray(t, dtype=float)[..., None]
    terms = (np.maximum(t - grid.nodes[:-1], 0.0) ** gamma
             - np.maximum(t - grid.nodes[1:], 0.0) ** gamma)
    return terms @ np.asarray(values, dtype=float) / scipy_gamma(1.0 + gamma)


def integral_norm_sq(grid, values, gamma) -> float:
    """||I_left^gamma v||^2 by singularity splitting + the oracle.

    On each interval the integral is an analytic part plus one
    ``(t - t_l)^gamma`` term, so the square splits into three pieces with
    known endpoint exponents.
    """
    total = 0.0
    nodes = grid.nodes
    previous = 0.0
    # pieces with a vanishing analytic part integrate to roundoff noise, so
    # the adaptive rule gets an absolute floor tied to the data scale
    floor = 1e-13 * float(np.max(np.abs(values))) ** 2 * grid.final_time
    for l in range(grid.num_steps):
        a, b = nodes[l], nodes[l + 1]
        c_l = (values[l] - previous) / scipy_gamma(1.0 + gamma)
        previous = values[l]

        def analytic_part(t, a=a, c_l=c_l):
            full = left_integral(grid, values, gamma, t)
            return full - c_l * (t - a) ** gamma

        total += singular_integral(
            a, b, smooth=lambda t: np.asarray(analytic_part(t)) ** 2, atol=floor)
        total += 2.0 * c_l * singular_integral(a, b, p=gamma, smooth=analytic_part,
                                               atol=floor)
        total += c_l ** 2 * (b - a) ** (2.0 * gamma + 1.0) / (2.0 * gamma + 1.0)
    return total
