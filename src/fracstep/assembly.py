"""Problem specifications and right-hand-side assembly.

The load pairs the data term (fractional derivative of the initial value
plus the source) against the test functions ``chi_{I_k} phi_i``.  All data
are separable, a spatial power/sine profile times a temporal power, so each
term is an outer product of closed-form time factors and hat moments;
:func:`load_terms` builds them once per spec, grid and mesh, and
:meth:`Load.rows` sums them for any range of steps.  Singular profiles like
``x^{-0.8}`` enter only through their hat moments, never sampled near
``x = 0``.  The experiment table and the manufactured solution are in
:mod:`fracstep.harness`.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import fem1d
from .errors import DomainError
from .fracops import TemporalGrid, _ensure_order
from .gammafn import gamma_fn

SPATIAL_POWER = "power"
SPATIAL_SINE = "sine"


def _ensure_mode(mode) -> None:
    """``DomainError`` unless the sine mode is an integer >= 1 (``2.0`` is)."""
    if not ((isinstance(mode, numbers.Integral) or float(mode).is_integer()) and mode >= 1):
        raise DomainError(f"sine mode must be an integer >= 1, got {mode}")


def _ensure_finite(datum, *names) -> None:
    """``DomainError`` naming the first of ``names`` that is not finite."""
    for name in names:
        value = getattr(datum, name)
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
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
        if self.spatial_kind == SPATIAL_SINE:
            _ensure_mode(self.spatial_param)
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
            _ensure_mode(self.mode)
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


def initial_time_factors(grid: TemporalGrid, alpha: float) -> np.ndarray:
    """Per-interval integrals of the order-alpha derivative of a unit constant,
    ``(t_k^(1-alpha) - t_{k-1}^(1-alpha)) / Gamma(2-alpha)``: the telescoped
    row sums of the temporal weight matrix."""
    alpha = _ensure_order(alpha, 0, 1, "alpha")
    return np.diff(grid.nodes ** (1.0 - alpha)) / gamma_fn(2.0 - alpha)


def power_time_factors(grid: TemporalGrid, exponent: float) -> np.ndarray:
    """Per-interval integrals of ``t^exponent`` for ``exponent > -1``."""
    if not exponent > -1.0:
        raise DomainError(f"temporal exponent must exceed -1, got {exponent}")
    return np.diff(grid.nodes ** (exponent + 1.0)) / (exponent + 1.0)


@dataclass(frozen=True, eq=False)
class Load:
    """A (J, N) load array as its terms ``(scale, J time factors, hat moments)``:
    the sum of ``scale * outer(factors, moments)`` in term order."""

    shape: tuple[int, int]
    terms: tuple[tuple[float, np.ndarray, np.ndarray], ...]

    def rows(self, steps: slice) -> np.ndarray:
        """The load rows ``steps``, bitwise the same rows of the whole array:
        every entry takes the same operations in the same order."""
        out = np.zeros((len(range(self.shape[0])[steps]), self.shape[1]))
        for scale, factors, moments in self.terms:
            out += scale * np.outer(factors[steps], moments)
        return out


def load_terms(spec: ProblemSpec, grid: TemporalGrid, mesh: fem1d.Mesh1D) -> Load:
    """The initial-data term (its scale in its moments), then each source.

    An aliasing sine mode is rejected here, before any row is formed."""
    terms = []
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
        terms.append((1.0, initial_time_factors(grid, spec.alpha), space))
    for term in spec.sources:
        if term.spatial_kind == SPATIAL_POWER:
            space = fem1d.power_load_vector(mesh, term.spatial_param)
        else:
            space = fem1d.sine_load_vector(mesh, int(term.spatial_param))
        terms.append((term.scale, power_time_factors(grid, term.temporal_exponent), space))
    return Load((grid.num_steps, mesh.n_interior), tuple(terms))


def assemble_load(spec: ProblemSpec, grid: TemporalGrid, mesh: fem1d.Mesh1D) -> np.ndarray:
    """The whole (J, N) load array of ``spec``."""
    return load_terms(spec, grid, mesh).rows(slice(None))


def spectral_test_problem(mode: int, alpha: float) -> ProblemSpec:
    """Nodal sine initial data with zero source; decouples onto one mode."""
    return ProblemSpec(alpha=alpha, initial=InitialData(kind="sine", mode=mode))


def spectral_eigenvalue(mesh: fem1d.Mesh1D, mode: int) -> float:
    """Rayleigh quotient of the sine vector: stiffness over mass energy."""
    values = fem1d.sine_vector(mesh, mode)
    num = fem1d.assemble_stiffness(mesh).quadform(values)
    den = fem1d.assemble_mass(mesh).quadform(values)
    return num / den
