"""Problem specifications and right-hand-side assembly.

The load array pairs the data term (fractional derivative of the initial
value plus the source) against the space-time test functions
``chi_{I_k} phi_i``.  All of the supported data are separable products of a
spatial power/sine profile and a temporal power, so each contribution is an
outer product of a closed-form time-factor vector and a closed-form spatial
moment vector.  Singular profiles like ``x^{-0.8}`` enter only through their
hat moments; nothing is ever sampled pointwise near ``x = 0``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fem1d
from .errors import DomainError
from .fracops import TemporalGrid, check_alpha
from .gammafn import gamma_fn

SPATIAL_POWER = "power"
SPATIAL_SINE = "sine"


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
        check_alpha(self.alpha)


def initial_time_factors(grid: TemporalGrid, alpha: float) -> np.ndarray:
    """Per-interval integrals of the order-alpha derivative of a unit constant.

    ``(t_k^(1-alpha) - t_{k-1}^(1-alpha)) / Gamma(2-alpha)``; the row sums of
    the temporal weight matrix telescope to the same values.
    """
    alpha = check_alpha(alpha)
    powers = grid.nodes ** (1.0 - alpha)
    return np.diff(powers) / gamma_fn(2.0 - alpha)


def power_time_factors(grid: TemporalGrid, exponent: float) -> np.ndarray:
    """Per-interval integrals of ``t^exponent`` for ``exponent > -1``."""
    if not exponent > -1.0:
        raise DomainError(f"temporal exponent must exceed -1, got {exponent}")
    powers = grid.nodes ** (exponent + 1.0)
    return np.diff(powers) / (exponent + 1.0)


def _spatial_vector(term: SourceTerm, mesh: fem1d.Mesh1D) -> np.ndarray:
    if term.spatial_kind == SPATIAL_POWER:
        return fem1d.power_load_vector(mesh, term.spatial_param)
    return fem1d.sine_load_vector(mesh, int(term.spatial_param))


def initial_data_load(spec: ProblemSpec, grid: TemporalGrid,
                      mesh: fem1d.Mesh1D) -> np.ndarray:
    """Load contribution of the initial value, a (J, N) array."""
    shape = (grid.num_steps, mesh.n_interior)
    if spec.initial is None:
        return np.zeros(shape)
    factors = initial_time_factors(grid, spec.alpha)
    init = spec.initial
    if init.kind == "power":
        space = init.scale * fem1d.power_load_vector(mesh, init.exponent)
    else:
        if not init.mode < mesh.n_cells:
            raise DomainError(f"mode must lie in 1..{mesh.n_cells - 1} to avoid "
                              f"aliasing, got {init.mode}")
        values = fem1d.sine_vector(mesh, init.mode)
        space = init.scale * fem1d.assemble_mass(mesh).matvec(values)
    return np.outer(factors, space)


def source_load(spec: ProblemSpec, grid: TemporalGrid,
                mesh: fem1d.Mesh1D) -> np.ndarray:
    """Load contribution of the separable source terms, a (J, N) array."""
    out = np.zeros((grid.num_steps, mesh.n_interior))
    for term in spec.sources:
        factors = power_time_factors(grid, term.temporal_exponent)
        out += term.scale * np.outer(factors, _spatial_vector(term, mesh))
    return out


def assemble_load(spec: ProblemSpec, grid: TemporalGrid,
                  mesh: fem1d.Mesh1D) -> np.ndarray:
    """Full load array: initial-data term plus sources."""
    return initial_data_load(spec, grid, mesh) + source_load(spec, grid, mesh)


class ManufacturedSolution:
    """Exact solution ``u = t^2 sin(pi x)`` and its space-time error norms."""

    def __call__(self, x, t):
        return np.asarray(t, dtype=float) ** 2 * np.sin(math.pi * np.asarray(x))

    def error_norms(self, grid: TemporalGrid, mesh: fem1d.Mesh1D,
                    values: np.ndarray) -> tuple[float, float]:
        """Exact (E1, E2) distances of a discrete field from the solution.

        The field is constant in time on each interval, so both squared norms
        expand into per-interval closed forms: moments of ``t^4`` and ``t^2``
        against the intervals, sine moments of the nodal values, and the
        mass/stiffness quadratic forms.  Integration by parts turns the
        gradient cross term into ``pi^2`` times the sine moment, since the
        discrete field vanishes at the boundary.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.num_steps, mesh.n_interior):
            raise DomainError("field dimensions do not match grid/mesh")
        sine_moment = fem1d.sine_load_vector(mesh, 1)
        mass = fem1d.assemble_mass(mesh)
        stiffness = fem1d.assemble_stiffness(mesh)
        t5 = np.diff(grid.nodes ** 5) / 5.0
        t3 = np.diff(grid.nodes ** 3) / 3.0
        tau = grid.tau
        cross = values @ sine_moment
        pi2 = math.pi ** 2
        e2_sq = float(np.sum(0.5 * t5 - 2.0 * t3 * cross
                             + tau * mass.quadform_rows(values)))
        e1_sq = float(np.sum(0.5 * pi2 * t5 - 2.0 * pi2 * t3 * cross
                             + tau * stiffness.quadform_rows(values)))
        return math.sqrt(max(e1_sq, 0.0)), math.sqrt(max(e2_sq, 0.0))


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
