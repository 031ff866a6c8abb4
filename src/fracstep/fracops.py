"""Closed-form fractional calculus on power functions and piecewise constants.

Everything here is exact in terms of the gamma function: left fractional
integrals and derivatives of ``c (t-a)^sigma``, the causal temporal Galerkin
weight matrix for piecewise constants on a uniform grid, and the discrete
fractional seminorm recovered from the left-right derivative pairing on any
grid.  The weight matrix's Toeplitz kernel and both pairings are one
four-corner form at orders ``alpha``, ``2 gamma`` and ``-2 gamma``.  No
discretized convolution kernels appear in this module; quadrature lives
only in the independent oracle (:mod:`fracstep.quadrature`).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BUDGET, CHUNK, BudgetError, DomainError
from .gammafn import gamma_fn

DENSE_MERGE = 512  # longest history merge done as one dense product


@dataclass(frozen=True)
class PowerFunction:
    """The function ``t -> coefficient * (t - offset)^exponent`` on ``t > offset``."""

    coefficient: float
    exponent: float
    offset: float = 0.0

    def __post_init__(self):
        if not self.exponent > -1.0:
            raise DomainError(
                f"exponent must exceed -1 for local integrability, got {self.exponent}")
        if not math.isfinite(self.coefficient):
            raise DomainError("coefficient must be finite")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if not (t > self.offset).all():
            raise DomainError(f"evaluation points {t} must exceed the offset {self.offset}")
        return self.coefficient * np.power(t - self.offset, self.exponent)


@dataclass(frozen=True, eq=False)
class TemporalGrid:
    """Partition ``0 = t_0 < t_1 < ... < t_J = T`` of the time axis.

    The grid owns a read-only float copy of the nodes it is given, so the
    caller's array stays writable and no later write to it reaches the grid.
    Its steps ``tau_j = t_{j+1} - t_j`` are computed once, with the nodes,
    and are read-only too.
    """

    nodes: np.ndarray
    tau: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise DomainError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise DomainError("grid must start at t_0 = 0")
        tau = nodes[1:] - nodes[:-1]
        if not (tau > 0.0).all():
            raise DomainError("grid nodes must be strictly increasing")
        if not math.isfinite(nodes[-1]):  # the nodes increase from 0: the last is the largest
            raise DomainError(f"grid nodes must be finite, got final time {nodes[-1]}")
        nodes.flags.writeable = False
        tau.flags.writeable = False
        object.__setattr__(self, "tau", tau)

    @classmethod
    def uniform(cls, num_steps: int, final_time: float = 1.0) -> "TemporalGrid":
        if not isinstance(num_steps, (int, np.integer)) or num_steps < 1:
            raise DomainError(f"need an integer num_steps >= 1, got {num_steps!r}")
        if num_steps > BUDGET:  # before the nodes are allocated; no solve has more
            raise BudgetError(f"{num_steps} steps exceed the budget of {BUDGET}")
        if not 0.0 < final_time < math.inf:
            raise DomainError(f"final time must be positive and finite, got {final_time}")
        return cls(final_time * (np.arange(num_steps + 1) / num_steps))

    @property
    def num_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def final_time(self) -> float:
        return float(self.nodes[-1])

    def is_uniform(self) -> bool:
        """Equal steps up to node rounding, which moves a step by about an
        ulp of ``T`` whatever the step count; hence a tolerance in ``T``."""
        tau = self.tau
        return bool((np.abs(tau - tau[0]) <= 1e-12 * self.final_time).all())


def _ensure_order(gamma: float, lo, hi, what: str) -> float:
    gamma = float(gamma)
    if not lo < gamma < hi:
        raise DomainError(f"{what} must lie in ({lo}, {hi}), got {gamma}")
    return gamma


# ---------------------------------------------------------------------------
# power-function rules
# ---------------------------------------------------------------------------

def integral_power_function(p: PowerFunction, gamma: float) -> PowerFunction:
    """Left fractional integral of a power function, as a power function.

    The order-``gamma`` integral of ``c (t-a)^sigma`` is
    ``c Gamma(sigma+1)/Gamma(sigma+1+gamma) (t-a)^(sigma+gamma)``.
    """
    gamma = _ensure_order(gamma, 0.0, 2.0, "integral order")
    coeff = p.coefficient * gamma_fn(p.exponent + 1.0) / gamma_fn(p.exponent + 1.0 + gamma)
    return PowerFunction(coeff, p.exponent + gamma, p.offset)


def derivative_power_function(p: PowerFunction, gamma: float) -> PowerFunction:
    """Left fractional derivative of a power function, as a power function.

    The order-``gamma`` derivative of ``c (t-a)^sigma`` is
    ``c Gamma(sigma+1)/Gamma(sigma+1-gamma) (t-a)^(sigma-gamma)``; the result
    exponent must stay above -1, which is also what keeps the formula's gamma
    argument off the poles.
    """
    gamma = _ensure_order(gamma, 0.0, 1.0, "derivative order")
    if not p.exponent - gamma > -1.0:
        raise DomainError(
            f"derivative exponent sigma-gamma = {p.exponent - gamma} must exceed -1")
    coeff = p.coefficient * gamma_fn(p.exponent + 1.0) / gamma_fn(p.exponent + 1.0 - gamma)
    return PowerFunction(coeff, p.exponent - gamma, p.offset)


# ---------------------------------------------------------------------------
# piecewise-constant kernels
# ---------------------------------------------------------------------------

def _plus_power(x, mu: float) -> np.ndarray:
    # (x)_+^mu, 0 wherever x <= 0; every caller has mu > 0, so 0^mu = 0
    return np.maximum(x, 0.0) ** mu


def _four_corner(grid: TemporalGrid, order: float) -> np.ndarray:
    """The matrix ``C`` of four-corner differences of order ``order``.

    ``C[k, j] = ((t_{k+1}-t_j)_+^mu - (t_k-t_j)_+^mu - (t_{k+1}-t_{j+1})_+^mu
    + (t_k-t_{j+1})_+^mu) / Gamma(2 - order)`` with ``mu = 1 - order``, for
    0-based interval indices; every piecewise constant pairing in this
    module is such a matrix.  The four corners are slices of one table of
    powers of node differences, so each entry is still computed on its own
    from its four nodes, and those with ``j > k`` are exact zeros.  A table
    of more than ``BUDGET`` entries raises :class:`BudgetError` before
    anything is allocated.
    """
    nodes = grid.nodes
    if nodes.size ** 2 > BUDGET:
        raise BudgetError(f"four-corner table ({grid.num_steps} intervals) exceeds the "
                          f"budget of {BUDGET} entries")
    p = _plus_power(nodes[:, None] - nodes, 1.0 - order)
    return (p[1:, :-1] - p[:-1, :-1] - p[1:, 1:] + p[:-1, 1:]) / gamma_fn(2.0 - order)


@dataclass(frozen=True, eq=False)
class TemporalWeightMatrix:
    """Causal Galerkin matrix of the left fractional derivative on a uniform grid.

    Entry ``(k, j)`` is the integral over interval ``k`` of the order-alpha
    derivative of the indicator of interval ``j``; it vanishes for ``j > k``
    and depends only on the lag ``k - j``, so the matrix is its Toeplitz
    kernel, one value per lag and one lag per step, and no J x J array.
    """

    _kernel: np.ndarray

    @property
    def num_steps(self) -> int:
        return self._kernel.size

    def block(self, rows: slice, cols: slice) -> np.ndarray:
        """The dense block ``G[rows, cols]``, zero above the diagonal, gathered
        from the Toeplitz kernel by lag ``k - j``."""
        J = self.num_steps
        lags = np.subtract.outer(np.arange(*rows.indices(J)),
                                 np.arange(*cols.indices(J)))
        return np.where(lags >= 0, self._kernel[np.maximum(lags, 0)], 0.0)

    def dense(self) -> np.ndarray:
        """Materialize the full lower-triangular matrix.

        More than ``BUDGET`` entries raise :class:`BudgetError` before
        anything is allocated.
        """
        J = self.num_steps
        if J * J > BUDGET:
            raise BudgetError(f"dense weight matrix ({J} steps) exceeds the "
                              f"budget of {BUDGET} matrix entries")
        return self.block(slice(None), slice(None))

    def history_dot(self, values: np.ndarray, k: int) -> np.ndarray:
        """``sum_{j<k} G[k, j] * values[j]`` along the leading axis."""
        return self.block(slice(k, k + 1), slice(0, k))[0] @ values[:k]

    def history_block(self, values: np.ndarray, lo: int, mid: int, hi: int) -> None:
        """Add ``sum_{lo<=j<mid} G[k, j] * values[j]`` to each row ``k`` in ``[mid, hi)``.

        The product is added in place; rows outside ``[mid, hi)`` are not
        touched.  Every lag ``k - j`` lies in ``1..n-1``, ``n = hi - lo``, so
        the block ``G[mid:hi, lo:mid]`` has no zero entry.  Up to ``n =
        DENSE_MERGE`` it is one dense product with that block, copied from a
        reversed sliding window over the kernel's lags ``1..n-1`` rather than
        gathered lag by lag as in :meth:`block`; its ``(hi - mid)(mid - lo)
        <= (n / 2)^2 <= errors.CHUNK`` values stay within one working buffer
        for every split.  Longer ranges are a Toeplitz product, evaluated as a
        circular real FFT convolution of length ``n`` with time as the
        contiguous axis, over about ``errors.CHUNK`` values of the past steps
        at a time (column chunks), transposed and zero-padded to length
        ``n``; no term wraps around.
        """
        n = hi - lo
        past = values[lo:mid]
        if n <= DENSE_MERGE:
            # row a, column b holds lag (mid - lo) + a - b
            lagged = sliding_window_view(self._kernel[n - 1:0:-1], mid - lo)[::-1]
            values[mid:hi] += np.ascontiguousarray(lagged) @ past
            return
        width = max(1, CHUNK // n)
        kernel_spectrum = np.fft.rfft(self._kernel[:n])
        for c in range(0, past.shape[1], width):
            spectrum = np.fft.rfft(past[:, c:c + width].T, n=n)
            spectrum *= kernel_spectrum
            values[mid:hi, c:c + width] += np.fft.irfft(spectrum, n=n)[:, mid - lo:].T


def temporal_weights(grid: TemporalGrid, alpha: float) -> TemporalWeightMatrix:
    """The causal weight matrix for the order-``alpha`` derivative.

    The grid must be uniform: a nonuniform one raises :class:`DomainError`
    before anything is computed.  The Toeplitz kernel is the four-corner
    formula of :func:`_four_corner` at lag ``d = k - j``, ``tau^mu ((d+1)^mu
    - 2 d^mu + (d-1)_+^mu) / Gamma(2 - alpha)`` with ``mu = 1 - alpha``,
    for ``d = 0, ..., J - 1``; the matrix holds that kernel and nothing else.
    """
    alpha = _ensure_order(alpha, 0, 1, "alpha")
    if not grid.is_uniform():
        raise DomainError("temporal weights need a uniform time grid")
    mu = 1.0 - alpha
    tau = grid.final_time / grid.num_steps
    d = np.arange(grid.num_steps, dtype=float)
    kernel = (_plus_power(d + 1.0, mu) - 2.0 * _plus_power(d, mu)
              + _plus_power(d - 1.0, mu)) * tau ** mu / gamma_fn(2.0 - alpha)
    return TemporalWeightMatrix(kernel)


def _pwc_pairing(grid: TemporalGrid, values, order: float) -> float:
    """``v . C v`` for one value per interval and ``C = _four_corner(grid, order)``."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.num_steps,):
        raise DomainError("one value per grid interval required")
    return float(values @ _four_corner(grid, order) @ values)


def derivative_pairing_pwc(grid: TemporalGrid, values, gamma: float) -> float:
    """Pairing ``<D_left^gamma v, D_right^gamma v>`` for piecewise-constant v.

    Requires ``gamma < 1/2``: interval indicators fall outside the pairing
    space at gamma = 1/2 and beyond.  Indicators pair as the order-``2 gamma``
    four-corner block, zero above the diagonal because the left derivative
    is causal and the right one anti-causal.
    """
    gamma = _ensure_order(gamma, 0, 0.5, "derivative pairing order")
    return _pwc_pairing(grid, values, 2.0 * gamma)


def fractional_integral_pairing_pwc(grid: TemporalGrid, values, gamma: float) -> float:
    """Pairing ``<I_left^gamma v, I_right^gamma v>`` for piecewise-constant v.

    The adjoint and composition rules turn it into ``<I_left^{2 gamma} v, v>``,
    the four-corner form of order ``-2 gamma``.
    """
    gamma = _ensure_order(gamma, 0.0, 1.0, "integral order")
    return _pwc_pairing(grid, values, -2.0 * gamma)


def fractional_seminorm_pwc(grid: TemporalGrid, values, gamma: float) -> float:
    """Order-``gamma`` seminorm of a piecewise constant on the grid.

    Recovered from the left-right derivative pairing divided by
    ``cos(gamma pi)``; valid for ``gamma`` in (0, 1/2) only, and an explicit
    error keeps gamma = 1/2 (where indicators leave the space) out.
    """
    pairing = derivative_pairing_pwc(grid, values, gamma)
    squared = pairing / math.cos(gamma * math.pi)
    if squared < 0.0:
        if squared < -1e-12 * float(np.max(np.abs(values), initial=0.0) ** 2 + 1.0):
            raise DomainError("pairing lost positivity; inputs out of range")
        squared = 0.0
    return math.sqrt(squared)

