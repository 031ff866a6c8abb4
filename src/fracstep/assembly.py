"""Problem specifications and right-hand-side assembly.

The load array pairs the data term (fractional derivative of the initial
value plus the source) against the space-time test functions
``chi_{I_k} phi_i``.  All of the supported data are separable products of a
spatial power/sine profile and a temporal power, so each contribution is an
outer product of a closed-form time-factor vector and a closed-form spatial
moment vector; :func:`assemble_load` is the one place they are summed.
Singular profiles like ``x^{-0.8}`` enter only through their hat moments;
nothing is ever sampled pointwise near ``x = 0``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fem1d
from .errors import CHUNK, DomainError
from .fracops import TemporalGrid, _ensure_order
from .gammafn import gamma_fn

SPATIAL_POWER = "power"
SPATIAL_SINE = "sine"


def _ensure_finite(datum, *names) -> None:
    """``DomainError`` naming the first of ``names`` that is not finite."""
    for name in names:
        value = getattr(datum, name)
        if not math.isfinite(value):
            raise DomainError(
                f"{type(datum).__name__} {name} must be finite, got {value}")


@dataclass(frozen=True)
class SourceTerm:
    """One separable source term ``scale * s(x) * t^temporal_exponent``.

    ``spatial_kind`` picks the profile: a power ``x^spatial_param`` or a sine
    ``sin(m pi x)`` with integer mode.  Temporal exponents below -1 are not
    integrable against piecewise constants and are rejected (the experiments
    use ``t^{-sigma}`` with ``sigma < 1``).
    """

    spatial_kind: str
    spatial_param: float
    temporal_exponent: float
    scale: float = 1.0

    def __post_init__(self):
        _ensure_finite(self, "scale", "spatial_param", "temporal_exponent")
        if self.spatial_kind not in (SPATIAL_POWER, SPATIAL_SINE):
            raise DomainError(f"unknown spatial profile {self.spatial_kind!r}")
        if self.spatial_kind == SPATIAL_POWER and not self.spatial_param > -1.0:
            raise DomainError(
                f"spatial power exponent must exceed -1, got {self.spatial_param}")
        if self.spatial_kind == SPATIAL_SINE and int(self.spatial_param) < 1:
            raise DomainError(f"sine mode must be >= 1, got {self.spatial_param}")
        if not self.temporal_exponent > -1.0:
            raise DomainError(
                "temporal exponent must exceed -1 (t^-sigma needs sigma < 1), "
                f"got {self.temporal_exponent}")


@dataclass(frozen=True)
class InitialData:
    """Initial value, either ``c x^r`` or ``c`` times the nodal sine of a mode.

    The sine kind is the interpolant of ``sin(mode pi x)`` on whatever mesh
    the load is assembled on; modes at or above that mesh's cell count alias
    and are rejected there.
    """

    kind: str  # "power" | "sine"
    scale: float = 1.0
    exponent: float = 0.0
    mode: int = 1

    def __post_init__(self):
        _ensure_finite(self, "scale", "exponent")
        if self.kind == "power":
            if not self.exponent > -1.0:
                raise DomainError(
                    f"initial-data exponent must exceed -1, got {self.exponent}")
        elif self.kind == "sine":
            if self.mode < 1:
                raise DomainError(f"sine mode must be >= 1, got {self.mode}")
        else:
            raise DomainError(f"unknown initial data kind {self.kind!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one solve: order and data.

    A spec carries no horizon; the temporal grid it is solved on sets ``T``.
    """

    alpha: float
    initial: InitialData | None = None
    sources: tuple[SourceTerm, ...] = ()
    exact: "ManufacturedSolution | None" = None

    def __post_init__(self):
        _ensure_order(self.alpha, 0, 1, "alpha")


def initial_time_factors(grid: TemporalGrid, alpha: float) -> np.ndarray:
    """Per-interval integrals of the order-alpha derivative of a unit constant.

    ``(t_k^(1-alpha) - t_{k-1}^(1-alpha)) / Gamma(2-alpha)``; the row sums of
    the temporal weight matrix telescope to the same values.
    """
    alpha = _ensure_order(alpha, 0, 1, "alpha")
    powers = grid.nodes ** (1.0 - alpha)
    return np.diff(powers) / gamma_fn(2.0 - alpha)


def power_time_factors(grid: TemporalGrid, exponent: float) -> np.ndarray:
    """Per-interval integrals of ``t^exponent`` for ``exponent > -1``."""
    if not exponent > -1.0:
        raise DomainError(f"temporal exponent must exceed -1, got {exponent}")
    powers = grid.nodes ** (exponent + 1.0)
    return np.diff(powers) / (exponent + 1.0)


def assemble_load(spec: ProblemSpec, grid: TemporalGrid,
                  mesh: fem1d.Mesh1D) -> np.ndarray:
    """Full (J, N) load array: the initial-data term, then each source in order.

    Each term is the outer product of its time factors and its hat moments.
    """
    out = np.zeros((grid.num_steps, mesh.n_interior))
    init = spec.initial
    if init is not None:
        if init.kind == "power":
            space = init.scale * fem1d.power_load_vector(mesh, init.exponent)
        else:
            if not init.mode < mesh.n_cells:
                raise DomainError(f"mode must lie in 1..{mesh.n_cells - 1} to avoid "
                                  f"aliasing, got {init.mode}")
            values = fem1d.sine_vector(mesh, init.mode)
            space = init.scale * fem1d.assemble_mass(mesh).matvec(values)
        out += np.outer(initial_time_factors(grid, spec.alpha), space)
    for term in spec.sources:
        if term.spatial_kind == SPATIAL_POWER:
            space = fem1d.power_load_vector(mesh, term.spatial_param)
        else:
            space = fem1d.sine_load_vector(mesh, int(term.spatial_param))
        factors = power_time_factors(grid, term.temporal_exponent)
        out += term.scale * np.outer(factors, space)
    return out


class ManufacturedSolution:
    """Exact solution ``u = t^2 sin(pi x)`` and its space-time error norms."""

    def __call__(self, x, t):
        return np.asarray(t, dtype=float) ** 2 * np.sin(math.pi * np.asarray(x))

    def error_norms(self, field) -> tuple[float, float]:
        """Exact (E1, E2) distances of a ``solver.SpaceTimeField`` from the solution.

        Let ``s = sin(pi x)``, ``I_h s`` its nodal interpolant (in 1D also its
        Ritz projection) and ``P_h s = beta I_h s`` its L2 projection, with
        ``beta = 3 (sin x / x)^2 / (3 - 2 sin^2 x)`` and ``x = pi h / 2``.  On
        interval ``k`` with midpoint ``c_k``, ``t^2`` has mean
        ``m_k = c_k^2 + tau_k^2 / 12`` and ``int (t^2 - m_k)^2 dt = v_k =
        tau_k (c_k^2 tau_k^2 / 3 + tau_k^4 / 180)``.  Splitting ``u - U_k``
        into orthogonal parts gives

            E2^2 = h sum_k tau_k (s0 - g/6)(m_k P_h s - U_k)
                   + sum_k v_k ||P_h s||^2 + (int t^4) ||s - P_h s||^2,
            E1^2 = sum_k tau_k g(m_k I_h s - U_k) / h
                   + sum_k v_k |I_h s|_1^2 + (int t^4) |s - I_h s|_1^2,

        with the band sums ``s0`` and ``g`` of :func:`fem1d.band_sums`,
        ``||P_h s||^2 = beta (sin x / x)^2 / 2``, ``|I_h s|_1^2 = 2 n^2
        sin^2 x``, ``||s - P_h s||^2 = (1 - beta (sin x / x)^2) / 2`` and
        ``|s - I_h s|_1^2 = (pi^2 / 2)(1 - (sin x / x)^2)``; the last two are
        power series in ``x^2``.  Every term is nonnegative, so nothing
        cancels.  The difference rows are formed about ``errors.CHUNK``
        values at a time.
        """
        grid, mesh, values = field.grid, field.mesh, field.values
        h = mesh.h
        x = 0.5 * math.pi * h
        sin_sq = math.sin(x) ** 2
        sinc_sq = sin_sq / (x * x)
        beta = 3.0 * sinc_sq / (3.0 - 2.0 * sin_sq)
        tau = grid.tau
        mid = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
        mean = mid ** 2 + tau ** 2 / 12.0
        variance = float(np.sum(tau * (mid ** 2 * tau ** 2 / 3.0 + tau ** 4 / 180.0)))
        t4 = grid.final_time ** 5 / 5.0
        interp = fem1d.sine_vector(mesh, 1)
        projection = beta * interp
        rows = max(1, CHUNK // (mesh.n_cells + 1))
        padded = np.zeros((rows, mesh.n_cells + 1))
        diffs = np.empty((rows, mesh.n_cells))
        g1, s0, g2 = np.empty((3, grid.num_steps))
        for j in range(0, grid.num_steps, rows):
            k = slice(j, j + rows)
            d = padded[:len(mean[k])]
            delta = diffs[:len(d)]
            np.multiply.outer(mean[k], interp, out=d[:, 1:-1])
            d[:, 1:-1] -= values[k]
            _, g1[k] = fem1d.band_sums(d, delta)
            np.multiply.outer(mean[k], projection, out=d[:, 1:-1])
            d[:, 1:-1] -= values[k]
            s0[k], g2[k] = fem1d.band_sums(d, delta)
        # 1 - (sin x / x)^2 and 1 - beta (sin x / x)^2 as power series in x^2,
        # smallest terms first (x <= pi/4, so 20 terms reach the last digit);
        # the second is 3 - 3 (sin x / x)^4 - 2 sin^2 x, whose x^0 and x^2
        # terms cancel exactly, over 3 - 2 sin^2 x
        x2 = x * x
        interp_defect = sum((-1) ** (j + 1) * 2.0 ** (2 * j + 1) * x2 ** j
                            / math.factorial(2 * j + 2) for j in range(20, 0, -1))
        projection_defect = sum(
            (-1) ** j * x2 ** j * (4.0 ** j / math.factorial(2 * j)
                                   - 3.0 * (16.0 ** (j + 2) - 4.0 ** (j + 3))
                                   / (8.0 * math.factorial(2 * j + 4)))
            for j in range(20, 1, -1)) / (3.0 - 2.0 * sin_sq)
        e1_sq = (float(np.sum(tau * g1)) / h
                 + variance * 2.0 * mesh.n_cells ** 2 * sin_sq
                 + t4 * 0.5 * math.pi ** 2 * interp_defect)
        e2_sq = (h * float(np.sum(tau * (s0 - g2 / 6.0)))
                 + variance * 0.5 * beta * sinc_sq
                 + t4 * 0.5 * projection_defect)
        return math.sqrt(e1_sq), math.sqrt(e2_sq)


def manufactured_problem(alpha: float) -> ProblemSpec:
    """Zero initial value and the source whose exact solution is ``t^2 sin(pi x)``.

    The source is the fractional time derivative of the solution plus its
    negative Laplacian: ``[2/Gamma(3-alpha)] t^(2-alpha) sin(pi x)
    + pi^2 t^2 sin(pi x)``.
    """
    sources = (
        SourceTerm(SPATIAL_SINE, 1, 2.0 - alpha, 2.0 / gamma_fn(3.0 - alpha)),
        SourceTerm(SPATIAL_SINE, 1, 2.0, math.pi ** 2),
    )
    return ProblemSpec(alpha=alpha, sources=sources, exact=ManufacturedSolution())


def spectral_test_problem(mode: int, alpha: float) -> ProblemSpec:
    """Nodal sine initial data with zero source; decouples onto one mode.

    The initial value enters through its mass-weighted load.  Modes at or
    above the mesh's ``n_cells`` alias to coarser ones (or to zero) and are
    rejected when the load is assembled.
    """
    return ProblemSpec(alpha=alpha, initial=InitialData(kind="sine", mode=mode))


def spectral_eigenvalue(mesh: fem1d.Mesh1D, mode: int) -> float:
    """Rayleigh quotient of the sine vector: stiffness over mass energy."""
    values = fem1d.sine_vector(mesh, mode)
    num = fem1d.assemble_stiffness(mesh).quadform(values)
    den = fem1d.assemble_mass(mesh).quadform(values)
    return num / den
