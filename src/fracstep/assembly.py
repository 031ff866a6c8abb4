"""Problem specifications and right-hand-side assembly.

The load array pairs the data term (fractional derivative of the initial
value plus the source) against the space-time test functions
``chi_{I_k} phi_i``.  All of the supported data are separable products of a
spatial power/sine profile and a temporal power, so each contribution is an
outer product of a closed-form time-factor vector and a closed-form spatial
moment vector; :func:`assemble_load` is the one place they are summed.
Singular profiles like ``x^{-0.8}`` enter only through their hat moments;
nothing is ever sampled pointwise near ``x = 0``.  Only specs and loads live
here; the experiment table and the manufactured solution are in
:mod:`fracstep.harness`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fem1d
from .errors import DomainError
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
    exact: "harness.ManufacturedSolution | None" = None

    def __post_init__(self):
        _ensure_order(self.alpha, 0, 1, "alpha")


def _step_nodes(grid: TemporalGrid, steps: slice) -> np.ndarray:
    """The nodes bounding the intervals ``steps``, a contiguous range of them."""
    lo, hi, stride = steps.indices(grid.num_steps)
    if stride != 1:
        raise DomainError(f"step range must be contiguous, got stride {stride}")
    return grid.nodes[lo:max(lo, hi) + 1]


def initial_time_factors(grid: TemporalGrid, alpha: float,
                         steps: slice = slice(None)) -> np.ndarray:
    """Per-interval integrals of the order-alpha derivative of a unit constant.

    ``(t_k^(1-alpha) - t_{k-1}^(1-alpha)) / Gamma(2-alpha)`` for the intervals
    ``steps`` (all by default); the row sums of the temporal weight matrix
    telescope to the same values.  Only those intervals' nodes are read.
    """
    alpha = _ensure_order(alpha, 0, 1, "alpha")
    powers = _step_nodes(grid, steps) ** (1.0 - alpha)
    return np.diff(powers) / gamma_fn(2.0 - alpha)


def power_time_factors(grid: TemporalGrid, exponent: float,
                       steps: slice = slice(None)) -> np.ndarray:
    """Per-interval integrals of ``t^exponent`` for ``exponent > -1``, over ``steps``."""
    if not exponent > -1.0:
        raise DomainError(f"temporal exponent must exceed -1, got {exponent}")
    powers = _step_nodes(grid, steps) ** (exponent + 1.0)
    return np.diff(powers) / (exponent + 1.0)


def assemble_load(spec: ProblemSpec, grid: TemporalGrid, mesh: fem1d.Mesh1D,
                  steps: slice = slice(None)) -> np.ndarray:
    """Rows ``steps`` of the (J, N) load array, all of them by default.

    The initial-data term, then each source in order; each term is the outer
    product of its time factors and its hat moments.  The time factors are
    evaluated on the nodes of ``steps`` only, so a range of steps costs its
    own length, and its rows are bitwise the same rows of the full array:
    every entry takes the same operations in the same order.
    """
    nodes = _step_nodes(grid, steps)
    out = np.zeros((nodes.size - 1, mesh.n_interior))
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
        out += np.outer(initial_time_factors(grid, spec.alpha, steps), space)
    for term in spec.sources:
        if term.spatial_kind == SPATIAL_POWER:
            space = fem1d.power_load_vector(mesh, term.spatial_param)
        else:
            space = fem1d.sine_load_vector(mesh, int(term.spatial_param))
        factors = power_time_factors(grid, term.temporal_exponent, steps)
        out += term.scale * np.outer(factors, space)
    return out


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
