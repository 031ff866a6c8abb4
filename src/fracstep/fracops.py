"""Closed-form fractional calculus on power functions and piecewise constants.

Everything here is exact in terms of the gamma function: left/right
fractional integrals and derivatives of ``c (t-a)^sigma``, the causal
temporal Galerkin weight matrix for piecewise constants, and the discrete
fractional seminorm recovered from the left-right derivative pairing.  No
discretized convolution kernels appear in this module; quadrature lives only
in the independent oracle (:mod:`fracstep.quadrature`).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .gammafn import gamma_fn

DENSE_MERGE = 512  # longest history merge done as one dense product
FFT_CHUNK = 1 << 16  # values per zero-padded buffer of an FFT history merge


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
        return self.coefficient * np.power(np.asarray(t, dtype=float) - self.offset,
                                           self.exponent)


@dataclass(frozen=True)
class TemporalGrid:
    """Partition ``0 = t_0 < t_1 < ... < t_J = T`` of the time axis."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise DomainError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise DomainError("grid must start at t_0 = 0")
        if not np.all(np.diff(nodes) > 0.0):
            raise DomainError("grid nodes must be strictly increasing")
        nodes.flags.writeable = False

    @classmethod
    def uniform(cls, num_steps: int, final_time: float = 1.0) -> "TemporalGrid":
        if num_steps < 1:
            raise DomainError("need at least one step")
        if not final_time > 0.0:
            raise DomainError("final time must be positive")
        return cls(final_time * (np.arange(num_steps + 1) / num_steps))

    @property
    def num_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def final_time(self) -> float:
        return float(self.nodes[-1])

    @property
    def tau(self) -> np.ndarray:
        """Interval lengths tau_j."""
        return np.diff(self.nodes)

    def is_uniform(self) -> bool:
        tau = self.tau
        return bool(np.all(np.abs(tau - tau[0]) <= 1e-12 * tau[0]))


def check_alpha(alpha: float) -> float:
    """The order of the time derivative as a float; raises unless 0 < alpha < 1."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _ensure_order(gamma: float, lo=0.0, hi=1.0, what="order") -> float:
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


def riemann_liouville_integral_power(p: PowerFunction, gamma: float, t: float) -> float:
    """Evaluate the left fractional integral of a power function at ``t``."""
    if not t > p.offset:
        raise DomainError(f"evaluation point {t} must exceed the offset {p.offset}")
    return float(integral_power_function(p, gamma)(t))


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


def riemann_liouville_derivative_power(p: PowerFunction, gamma: float, t: float) -> float:
    """Evaluate the left fractional derivative of a power function at ``t``."""
    if not t > p.offset:
        raise DomainError(f"evaluation point {t} must exceed the offset {p.offset}")
    return float(derivative_power_function(p, gamma)(t))


def right_integral_power(coefficient: float, exponent: float, endpoint: float,
                         gamma: float, t: float) -> float:
    """Right fractional integral of ``c (b-s)^sigma`` evaluated at ``t < b``.

    Mirror of the left-sided rule: the result is
    ``c Gamma(sigma+1)/Gamma(sigma+1+gamma) (b-t)^(sigma+gamma)``.
    """
    gamma = _ensure_order(gamma, 0.0, 2.0, "integral order")
    if not exponent > -1.0:
        raise DomainError(f"exponent must exceed -1, got {exponent}")
    if not t < endpoint:
        raise DomainError(f"evaluation point {t} must precede the endpoint {endpoint}")
    coeff = coefficient * gamma_fn(exponent + 1.0) / gamma_fn(exponent + 1.0 + gamma)
    return coeff * (endpoint - t) ** (exponent + gamma)


# ---------------------------------------------------------------------------
# piecewise-constant kernels
# ---------------------------------------------------------------------------

def _plus_power(x, mu: float) -> np.ndarray:
    # (x)_+^mu with the exact-zero convention: 0 wherever x <= 0, for any mu
    # (negative mu included, where naive clipping would produce inf at 0).
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mask = x > 0.0
    out[mask] = x[mask] ** mu
    return out


def _four_corner(grid: TemporalGrid, mu: float, rows=slice(None), cols=slice(None)):
    """Block ``C[rows, cols]`` of four-corner differences with exponent ``mu``.

    ``C[k, j] = (t_{k+1}-t_j)_+^mu - (t_k-t_j)_+^mu - (t_{k+1}-t_{j+1})_+^mu
    + (t_k-t_{j+1})_+^mu`` for 0-based interval indices; every piecewise
    constant pairing in this module is such a matrix up to a gamma factor.
    Entries are computed one by one, so a block is bitwise the same slice of
    the full matrix; those with ``j > k`` are exact zeros.
    """
    upper = grid.nodes[1:]
    lower = grid.nodes[:-1]
    a = _plus_power(upper[rows, None] - lower[None, cols], mu)
    b = _plus_power(lower[rows, None] - lower[None, cols], mu)
    c = _plus_power(upper[rows, None] - upper[None, cols], mu)
    d = _plus_power(lower[rows, None] - upper[None, cols], mu)
    return a - b - c + d


@dataclass(frozen=True)
class TemporalWeightMatrix:
    """Causal Galerkin matrix of the left fractional derivative.

    Entry ``(k, j)`` is the integral over interval ``k`` of the order-alpha
    derivative of the indicator of interval ``j``; it vanishes for ``j > k``.
    A uniform grid stores its Toeplitz kernel (the FFT merges need it); any
    other grid stores nothing, and :meth:`block` evaluates what is asked for.
    """

    grid: TemporalGrid
    alpha: float
    _kernel: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_steps(self) -> int:
        return self.grid.num_steps

    def block(self, rows: slice, cols: slice) -> np.ndarray:
        """The dense block ``G[rows, cols]``, zero above the diagonal.

        On a uniform grid it is gathered from the Toeplitz kernel by lag
        ``k - j``; otherwise the four-corner formula is evaluated on just
        these rows and columns.
        """
        if self._kernel is None:
            return (_four_corner(self.grid, 1.0 - self.alpha, rows, cols)
                    / gamma_fn(2.0 - self.alpha))
        J = self.num_steps
        lags = np.subtract.outer(np.arange(*rows.indices(J)),
                                 np.arange(*cols.indices(J)))
        return np.where(lags >= 0, self._kernel[np.maximum(lags, 0)], 0.0)

    def dense(self) -> np.ndarray:
        """Materialize the full lower-triangular matrix (small J only)."""
        return self.block(slice(None), slice(None))

    def history_dot(self, values: np.ndarray, k: int) -> np.ndarray:
        """``sum_{j<k} G[k, j] * values[j]`` along the leading axis."""
        return self.block(slice(k, k + 1), slice(0, k))[0] @ values[:k]

    def history_block(self, values: np.ndarray, lo: int, mid: int,
                      hi: int) -> np.ndarray:
        """Rows ``k`` in ``[mid, hi)`` of ``sum_{lo<=j<mid} G[k, j] * values[j]``.

        Up to ``n = hi - lo = DENSE_MERGE``, and on nonuniform grids, this is
        a dense product with :meth:`block`, in row chunks of at most
        ``FFT_CHUNK`` block values.  Longer uniform ranges are a Toeplitz
        product, evaluated as a circular real FFT convolution of length ``n``
        with time as the contiguous axis, over about ``FFT_CHUNK`` values of
        the past steps at a time, transposed and zero-padded to length ``n``.
        Every lag ``k - j`` lies in ``1..n-1``, so no term wraps around.
        """
        n = hi - lo
        past = values[lo:mid]
        out = np.empty((hi - mid, past.shape[1]))
        if self._kernel is None or n <= DENSE_MERGE:
            height = max(1, FFT_CHUNK // (mid - lo))
            for r in range(mid, hi, height):
                rows = self.block(slice(r, min(r + height, hi)), slice(lo, mid))
                out[r - mid:r - mid + height] = rows @ past
            return out
        width = max(1, FFT_CHUNK // n)
        kernel_spectrum = np.fft.rfft(self.block(slice(0, n), slice(0, 1))[:, 0])
        for c in range(0, past.shape[1], width):
            spectrum = np.fft.rfft(past[:, c:c + width].T, n=n) * kernel_spectrum
            out[:, c:c + width] = np.fft.irfft(spectrum, n=n)[:, mid - lo:].T
        return out


def temporal_weights(grid: TemporalGrid, alpha: float) -> TemporalWeightMatrix:
    """The causal weight matrix for the order-``alpha`` derivative.

    On a uniform grid the entries depend only on ``k - j`` and the Toeplitz
    kernel is computed here; on any other grid nothing is precomputed, and
    :meth:`TemporalWeightMatrix.block` evaluates the four-corner formula on
    the rows and columns it is asked for.
    """
    alpha = check_alpha(alpha)
    if not grid.is_uniform():
        return TemporalWeightMatrix(grid, alpha)
    mu = 1.0 - alpha
    tau = grid.final_time / grid.num_steps
    d = np.arange(grid.num_steps, dtype=float)
    kernel = (_plus_power(d + 1.0, mu) - 2.0 * _plus_power(d, mu)
              + _plus_power(d - 1.0, mu)) * tau ** mu / gamma_fn(2.0 - alpha)
    return TemporalWeightMatrix(grid, alpha, _kernel=kernel)


def derivative_pairing_matrix(grid: TemporalGrid, gamma: float) -> np.ndarray:
    """Matrix of ``<D_left^gamma chi_j, D_right^gamma chi_k>`` pairings.

    Requires ``gamma < 1/2``: interval indicators fall outside the pairing
    space at gamma = 1/2 and beyond.  Entry ``(k, j)`` vanishes for ``j > k``
    because the left derivative is causal and the right one anti-causal.
    """
    gamma = float(gamma)
    if not 0.0 < gamma < 0.5:
        raise DomainError(
            f"derivative pairing requires 0 < gamma < 1/2, got {gamma}")
    return np.tril(_four_corner(grid, 1.0 - 2.0 * gamma)) / gamma_fn(2.0 - 2.0 * gamma)


def integral_pairing_matrix(grid: TemporalGrid, gamma: float) -> np.ndarray:
    """Matrix of ``<I_left^gamma chi_j, I_right^gamma chi_k>`` pairings.

    Computed through the adjoint/composition rules, which turn the pairing
    into ``<I_left^{2 gamma} chi_j, chi_k>`` with the same four-corner shape.
    """
    gamma = _ensure_order(gamma, 0.0, 1.0, "integral order")
    return np.tril(_four_corner(grid, 1.0 + 2.0 * gamma)) / gamma_fn(2.0 + 2.0 * gamma)


def derivative_pairing_pwc(grid: TemporalGrid, values, gamma: float) -> float:
    """Bilinear pairing of the left/right derivatives of a piecewise constant."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.num_steps,):
        raise DomainError("one value per grid interval required")
    mat = derivative_pairing_matrix(grid, gamma)
    return float(values @ mat @ values)


def fractional_integral_pairing_pwc(grid: TemporalGrid, values, gamma: float) -> float:
    """Pairing ``<I_left^gamma v, I_right^gamma v>`` for piecewise-constant v."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.num_steps,):
        raise DomainError("one value per grid interval required")
    mat = integral_pairing_matrix(grid, gamma)
    return float(values @ mat @ values)


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

