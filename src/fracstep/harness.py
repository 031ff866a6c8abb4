"""Convergence-study engine: experiments, refinement sweeps, orders, caching.

``EXPERIMENTS`` is the one place an experiment is defined.  Keyed by the
canonical tag, each record holds the CLI aliases, the data parameters with
their defaults, a mesh-free spec builder and the desk-scale plan per axis;
the CLI, the sweeps and the property suite all read it.  The spec builders
live here, the manufactured problem with its exact solution among them.

A sweep runs on the unit horizon ``T = 1``, the default of
:meth:`TemporalGrid.uniform`.  A plan with a reference level solves that
reference problem on a fine nested grid once, solves each coarser level
once, and integrates the space-time errors exactly on the common refinement
(the difference is piecewise constant in time and piecewise linear in space,
so no sampling is involved).  The reference is read once, as its
:class:`BlockMoments` (weighted means and scatters per interval) on the
finest level's time grid; these are coarsened to each coarser level's time
grid, each from the one before, and each level's error is then integrated
on its own time grid through the exact identity of
:func:`space_time_error`.  The reference cache stores exactly those finest
moments, not the reference field, under a key that carries a digest of the
numerics modules' source (:func:`_reference_meta`).  A plan without a
reference measures each level against the experiment's exact solution.
Every reported E1/E2, the manufactured solution's exact norms included, is
reduced by the one chunked error kernel :func:`_block_forms`.  Observed
orders are base-2 logarithms of consecutive error ratios on dyadic levels.

Desk-scale defaults keep the reference resolutions modest; the sweeps check
orders, not absolute error digits.
"""

import functools
import hashlib
import math
import os
import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy

from . import assembly, fem1d, solver
from .errors import BUDGET, CHUNK, BudgetError, DomainError, NestingError, SolverError
from .fracops import TemporalGrid, _ensure_order
from .gammafn import gamma_fn

AXIS_SPACE = "space"
AXIS_TIME = "time"

# ---------------------------------------------------------------------------
# experiment table: the one place an experiment is defined
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Experiment:
    """One registered experiment.

    ``aliases`` are the names ``fracstep --experiment`` accepts.  ``params``
    maps each data parameter to its default, ``None`` where it is required.
    ``build(alpha=..., **params)`` (keywords only) returns the mesh-free spec.
    ``plans`` maps an axis to the desk-scale settings of :func:`default_plan`.
    """

    aliases: tuple[str, ...]
    params: dict
    build: Callable[..., assembly.ProblemSpec]
    plans: dict


def _experiment1(alpha, *, r, sigma):
    """Initial value ``x^r`` and source ``x^r t^-sigma``."""
    return assembly.ProblemSpec(
        alpha=alpha, initial=assembly.InitialData(kind="power", scale=1.0, exponent=r),
        sources=(assembly.SourceTerm(assembly.SPATIAL_POWER, r, -sigma),))


def _experiment2(alpha, *, c):
    """Initial value ``c x^-0.49`` (none for c = 0) and source ``x^-0.8 t^-0.49``."""
    initial = None
    if c != 0.0:
        initial = assembly.InitialData(kind="power", scale=c, exponent=-0.49)
    return assembly.ProblemSpec(
        alpha=alpha, initial=initial,
        sources=(assembly.SourceTerm(assembly.SPATIAL_POWER, -0.8, -0.49),))


def _experiment3(alpha):
    """Zero initial value and source ``x^-0.49 t^-0.29``."""
    return assembly.ProblemSpec(
        alpha=alpha, sources=(assembly.SourceTerm(assembly.SPATIAL_POWER, -0.49, -0.29),))


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

            E2^2 = h sum_k tau_k (s0 - g/6)(U_k - m_k P_h s)
                   + sum_k v_k ||P_h s||^2 + (int t^4) ||s - P_h s||^2,
            E1^2 = sum_k tau_k g(U_k - m_k I_h s) / h
                   + sum_k v_k |I_h s|_1^2 + (int t^4) |s - I_h s|_1^2,

        with the band sums ``s0`` and ``g`` of :func:`fem1d.band_sums`,
        ``||P_h s||^2 = beta (sin x / x)^2 / 2``, ``|I_h s|_1^2 = 2 n^2
        sin^2 x``, ``||s - P_h s||^2 = (1 - beta (sin x / x)^2) / 2`` and
        ``|s - I_h s|_1^2 = (pi^2 / 2)(1 - (sin x / x)^2)``; the last two are
        power series in ``x^2``.  Every term is nonnegative, so nothing
        cancels.  The band terms are the ``stiff`` sum of :func:`_block_forms`
        about ``m_k I_h s`` and its ``mass`` sum about ``m_k P_h s``.
        """
        grid, mesh = field.grid, field.mesh
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
        moments = BlockMoments.of_values(grid, mesh, field.values)
        _, stiff = _block_forms(moments, grid.num_steps,
                                lambda k: np.multiply.outer(mean[k], interp))
        mass, _ = _block_forms(moments, grid.num_steps,
                               lambda k: np.multiply.outer(mean[k], projection))
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
        e1_sq = (float(np.sum(stiff)) / h
                 + variance * 2.0 * mesh.n_cells ** 2 * sin_sq
                 + t4 * 0.5 * math.pi ** 2 * interp_defect)
        e2_sq = (h * float(np.sum(mass))
                 + variance * 0.5 * beta * sinc_sq
                 + t4 * 0.5 * projection_defect)
        return math.sqrt(e1_sq), math.sqrt(e2_sq)


def manufactured_problem(alpha: float) -> assembly.ProblemSpec:
    """Zero initial value and the source whose exact solution is ``t^2 sin(pi x)``.

    The source is the fractional time derivative of the solution plus its
    negative Laplacian: ``[2/Gamma(3-alpha)] t^(2-alpha) sin(pi x)
    + pi^2 t^2 sin(pi x)``.
    """
    sources = (
        assembly.SourceTerm(assembly.SPATIAL_SINE, 1, 2.0 - alpha,
                            2.0 / gamma_fn(3.0 - alpha)),
        assembly.SourceTerm(assembly.SPATIAL_SINE, 1, 2.0, math.pi ** 2),
    )
    return assembly.ProblemSpec(alpha=alpha, sources=sources, exact=ManufacturedSolution())

# keyed by the canonical tag, which sweep metadata and cache keys carry
EXPERIMENTS = {
    "experiment1": Experiment(
        aliases=("exp1", "experiment1"), params={"r": None, "sigma": 0.49},
        build=_experiment1,
        plans={AXIS_SPACE: dict(alpha=0.2, params={"r": -0.8}, nx=8, nt=4096,
                                count=4, reference=(512, 4096)),
               AXIS_TIME: dict(alpha=0.4, params={"r": -0.49}, nx=256, nt=16,
                               count=5, reference=(256, 4096))}),
    "experiment2": Experiment(
        aliases=("exp2", "experiment2"), params={"c": 0.0}, build=_experiment2,
        plans={AXIS_SPACE: dict(alpha=0.7, params={"c": 0.0}, nx=4, nt=4096,
                                count=5, reference=(512, 4096)),
               AXIS_TIME: dict(alpha=0.8, params={"c": 0.0}, nx=256, nt=16,
                               count=5, reference=(256, 4096))}),
    "experiment3": Experiment(
        aliases=("exp3", "experiment3"), params={}, build=_experiment3,
        plans={AXIS_SPACE: dict(alpha=0.8, params={}, nx=8, nt=4096, count=4,
                                reference=(512, 4096)),
               AXIS_TIME: dict(alpha=0.8, params={}, nx=256, nt=16, count=5,
                               reference=(256, 4096))}),
    "manufactured": Experiment(
        aliases=("manufactured",), params={}, build=manufactured_problem,
        plans={AXIS_SPACE: dict(alpha=0.8, params={}, nx=8, nt=1024, count=5,
                                reference=(2048, 1024)),
               AXIS_TIME: dict(alpha=0.8, params={}, nx=256, nt=16, count=6,
                               reference=None)}),
    "spectral_test": Experiment(
        aliases=("spectral",), params={"mode": None},
        build=assembly.spectral_test_problem, plans={}),
}


def experiment_problem(experiment: str, alpha: float, **params) -> assembly.ProblemSpec:
    """Construct the problem spec of a registered experiment tag.

    Parameters left out or given as ``None`` take the table's defaults; a
    required one left unset, or one the experiment does not have, raises.
    """
    if experiment not in EXPERIMENTS:
        raise DomainError(f"unknown experiment tag {experiment!r}")
    entry = EXPERIMENTS[experiment]
    for name in params:
        if name not in entry.params:
            raise DomainError(f"{experiment} has no parameter {name!r}")
    values = {name: default if params.get(name) is None else params[name]
              for name, default in entry.params.items()}
    for name, value in values.items():
        if value is None:
            raise DomainError(f"{experiment} needs the parameter {name!r}")
    return entry.build(alpha=alpha, **values)

# ---------------------------------------------------------------------------
# sweep plans and tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPlan:
    """One refinement study: problem, levels and the reference level.

    Each level is measured against the reference's solution, or against the
    experiment's exact solution when ``reference`` is ``None``.
    """

    experiment: str
    alpha: float
    axis: str
    levels: tuple[tuple[int, int], ...]  # (n_cells, num_steps) per level
    reference: tuple[int, int] | None
    params: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if self.axis not in (AXIS_SPACE, AXIS_TIME):
            raise DomainError(f"axis must be 'space' or 'time', got {self.axis!r}")
        if not self.levels:
            raise DomainError("a sweep needs at least one level")
        if self.reference is not None:
            ref_nx, ref_nt = self.reference
            for nx, nt in self.levels:
                if ref_nx % nx != 0 or ref_nt % nt != 0:
                    raise NestingError(
                        f"level ({nx}, {nt}) is not nested in the reference "
                        f"({ref_nx}, {ref_nt})")
                if not is_power_of_two(ref_nx // nx) or not is_power_of_two(ref_nt // nt):
                    raise NestingError("reference refinement ratios must be dyadic")
            # levels identical to the reference are permitted (self-comparison
            # sanity, zero error by construction); all others must be strictly
            # coarser than the reference on the refined axis
            proper = [lvl for lvl in self.levels if lvl != self.reference]
            finer = [nx for nx, _ in proper] if self.axis == AXIS_SPACE \
                else [nt for _, nt in proper]
            ref_axis = ref_nx if self.axis == AXIS_SPACE else ref_nt
            if finer and ref_axis <= max(finer):
                raise NestingError(
                    "reference must be strictly finer than every swept level "
                    "on the refined axis")

    def __hash__(self):
        return hash((self.experiment, self.alpha, self.axis, self.levels, self.reference,
                     tuple(sorted(self.params.items()))))


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass
class ConvergenceTable:
    """Rows of (h, tau, E1, order1, E2, order2) plus run metadata."""

    rows: list
    meta: dict

    def to_csv_text(self) -> str:
        lines = ["h,tau,E1,order1,E2,order2"]
        for row in self.rows:
            lines.append(",".join([
                format_float(row["h"]), format_float(row["tau"]), format_float(row["E1"]),
                format_float(row["order1"]), format_float(row["E2"]),
                format_float(row["order2"])]))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {"meta": self.meta, "rows": self.rows}

    def final_order(self, which: str) -> float:
        key = {"E1": "order1", "E2": "order2"}[which]
        orders = [row[key] for row in self.rows if row[key] is not None]
        if not orders:
            raise DomainError("table has no computed orders")
        return orders[-1]


def format_float(x) -> str:
    """17 significant digits, which round-trip a 64-bit float; "" for None."""
    return "" if x is None else f"{x:.17g}"


def order_fit(errors) -> list:
    """Observed orders ``log2(E_prev / E_cur)`` between consecutive levels."""
    errors = [float(e) for e in errors]
    if len(errors) < 2:
        raise DomainError("order fit needs at least two levels")
    for e in errors:
        if not (math.isfinite(e) and e > 0.0):
            raise DomainError(f"orders undefined for error value {e}")
    return [math.log2(errors[i - 1] / errors[i]) for i in range(1, len(errors))]


def expected_orders(alpha: float, beta: float, case: str) -> dict:
    """Predicted convergence orders per norm and axis for a covered regime.

    ``case`` is ``general`` (nonzero initial value), ``zero-initial`` or
    ``smooth-source`` (zero initial value with a time-regular source, valid
    for alpha > 1/2 only).  Returns ``{"E1": (h_order, tau_order), "E2":
    (h_order, tau_order)}``; combinations outside the covered regimes raise.
    """
    _ensure_order(alpha, 0, 1, "alpha")
    if case == "smooth-source":
        if not alpha > 0.5:
            raise DomainError("smooth-source rates need alpha > 1/2")
        return {"E1": (1.0, 1.0 - alpha / 2.0), "E2": (2.0, 1.0)}
    if case == "general":
        # the alpha >= 1/2 regime covers beta up to and including 1
        limit_incl = alpha >= 0.5
        if not (0.0 <= beta < 1.0 or (limit_incl and beta == 1.0)):
            raise DomainError(f"beta out of the covered range, got {beta}")
        if alpha >= 0.5 and beta <= 2.0 - 1.0 / alpha:
            raise DomainError(
                f"alpha={alpha}, beta={beta} with nonzero initial data is not "
                "covered; need beta > 2 - 1/alpha")
    elif case == "zero-initial":
        if not 0.0 <= beta < 1.0:
            raise DomainError(f"beta must lie in [0, 1), got {beta}")
    else:
        raise DomainError(f"unknown case tag {case!r}")
    return {"E1": (1.0 - beta, alpha * (1.0 - beta) / 2.0),
            "E2": (2.0 - beta, alpha * (1.0 - beta / 2.0))}


# ---------------------------------------------------------------------------
# exact space-time error between nested discrete solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockMoments:
    """A fine field on a nested coarser time grid: block means and scatters.

    Interval ``K`` of ``grid``, of length ``T_K = grid.tau[K]``, covers fine
    rows ``f_k`` on ``mesh`` with weights ``tau_k``; ``means[K] + lows[K]``
    is their weighted mean ``m_K``, the naive mean plus the mean of the
    deviations from it, kept apart so that rounding does not lose it;
    ``mass[K]`` and ``stiff[K]`` are ``sum_k tau_k Q(f_k - m_K)`` for
    ``Q = s0 - g / 6`` and ``Q = g`` (band sums of :func:`fem1d.band_sums`;
    the P1 mass and stiffness forms without ``h`` and ``1 / h``).  A field
    is its own ratio-1 moments (:meth:`of_values`): no lows, zero scatter.
    """

    grid: TemporalGrid
    mesh: fem1d.Mesh1D
    means: np.ndarray
    lows: np.ndarray | None
    mass: np.ndarray
    stiff: np.ndarray

    @classmethod
    def of_values(cls, grid: TemporalGrid, mesh: fem1d.Mesh1D,
                  values: np.ndarray) -> "BlockMoments":
        zero = np.broadcast_to(0.0, (grid.num_steps,))  # no per-row storage
        return cls(grid, mesh, values, None, zero, zero)

    def payload(self) -> np.ndarray:
        """The moments as one flat array, the layout of a cache entry.

        Ratio-1 moments are their field's rows; others are ``means``,
        ``lows``, ``mass`` and ``stiff`` in turn, ``J (2 n + 2)`` values for
        ``J`` intervals and ``n`` interior nodes.
        """
        if self.lows is None:
            return self.means.ravel()
        return np.concatenate([self.means.ravel(), self.lows.ravel(), self.mass, self.stiff])

    @classmethod
    def from_payload(cls, grid: TemporalGrid, mesh: fem1d.Mesh1D,
                     payload: np.ndarray) -> "BlockMoments":
        """Moments from :meth:`payload`'s layout, as views into ``payload``."""
        steps, n = grid.num_steps, mesh.n_interior
        if payload.size == steps * n:
            return cls.of_values(grid, mesh, payload.reshape(steps, n))
        means, lows, mass, stiff = np.split(payload, np.cumsum([steps * n, steps * n, steps]))
        return cls(grid, mesh, means.reshape(steps, n), lows.reshape(steps, n), mass, stiff)

    def ratio(self, grid: TemporalGrid) -> int:
        """Intervals of these moments per interval of the nested ``grid``."""
        num_coarse = grid.num_steps
        ratio = self.grid.num_steps // num_coarse
        if ratio * num_coarse != self.grid.num_steps:
            raise NestingError("time grids are not nested")
        # np.allclose at rtol 0, for the finite nodes TemporalGrid admits
        shift = np.max(np.abs(self.grid.nodes[::ratio] - grid.nodes))
        if not shift <= 1e-14 * self.grid.final_time:
            raise NestingError("time grids do not share nodes")
        return ratio

    def coarsen(self, grid: TemporalGrid) -> "BlockMoments":
        """The same fine field's moments on the nested coarser ``grid``.

        Groups of these intervals merge exactly about the naive means
        ``c_K``: :func:`_block_forms` gives the scatter about ``c_K`` and adds
        ``sum_i T_i (m_i - c_K)`` into the lows, which divided by ``T_K`` is
        the low part ``delta_K``; taking off ``T_K Q(delta_K)`` leaves the
        scatter about the merged mean ``c_K + delta_K``.
        """
        ratio = self.ratio(grid)
        if ratio == 1:
            return self
        num_coarse, n = grid.num_steps, self.mesh.n_interior
        weights = self.grid.tau.reshape(num_coarse, ratio)
        totals = grid.tau
        means = np.matmul(weights[:, None, :], self.means.reshape(num_coarse, ratio, n))[:, 0]
        means /= totals[:, None]
        lows = np.zeros((num_coarse, n))
        mass, stiff = _block_forms(self, num_coarse, lambda block: means[block], lows)
        lows /= totals[:, None]
        s0, g = fem1d.band_sums(np.pad(lows, ((0, 0), (1, 1))),
                                np.empty((num_coarse, n + 1)))
        mass -= totals * (s0 - g / 6.0)
        stiff -= totals * g
        return BlockMoments(grid, self.mesh, means, lows, mass, stiff)


def _block_forms(moments: BlockMoments, num_coarse: int, centers,
                 lows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per coarse interval K, both forms of ``sum_i T_i Q(m_i - c_K) + W_i``.

    ``i`` runs over the moments' intervals in K (lengths ``T_i``, means
    ``m_i`` with their lows, scatter ``W_i``); ``centers(block)`` returns
    the centers ``c_K`` of the coarse intervals in the slice ``block``.
    Given ``lows``, ``sum_i T_i (m_i - c_K)`` is added into its rows; the
    forms stay about ``c_K`` either way.  Differences are formed in buffers
    of about ``errors.CHUNK`` values, an interval K too long for one in
    equal parts.
    """
    ratio = moments.grid.num_steps // num_coarse
    n = moments.mesh.n_interior
    parts = -(-ratio * (n + 2) // CHUNK)
    sub = -(-ratio // parts)
    rows = max(1, CHUNK // (sub * (n + 2)))
    padded = np.zeros((rows, sub, n + 2))
    diffs = np.empty((rows, sub, n + 1))
    weights = moments.grid.tau.reshape(num_coarse, ratio)
    values = moments.means.reshape(num_coarse, ratio, n)
    if moments.lows is not None:
        fine_lows = moments.lows.reshape(num_coarse, ratio, n)
    mass = moments.mass.reshape(num_coarse, ratio).sum(axis=1)
    stiff = moments.stiff.reshape(num_coarse, ratio).sum(axis=1)
    for j in range(0, num_coarse, rows):
        block = slice(j, j + rows)
        center = centers(block)
        for i in range(0, ratio, sub):
            d = padded[:len(center), :min(sub, ratio - i)]
            np.subtract(values[block, i:i + sub], center[:, None, :], out=d[..., 1:-1])
            if moments.lows is not None:
                d[..., 1:-1] += fine_lows[block, i:i + sub]
            s0, g = fem1d.band_sums(d, diffs[:d.shape[0], :d.shape[1]])
            w = weights[block, i:i + sub]
            mass[block] += np.sum(w * (s0 - g / 6.0), axis=1)
            stiff[block] += np.sum(w * g, axis=1)
            if lows is not None:
                lows[block] += np.matmul(w[:, None, :], d[..., 1:-1])[:, 0]
    return mass, stiff


def space_time_error(coarse: solver.SpaceTimeField,
                     reference: "solver.SpaceTimeField | BlockMoments") -> tuple[float, float]:
    """(E1, E2) distances between nested discrete solutions, exactly.

    The coarse field ``c`` is prolonged to the reference mesh (exact for
    P1) and held constant on each of its time intervals K.  The reference
    is a field or its :class:`BlockMoments` on a nested grid, the coarse
    one or finer.  For a P1 form Q and the reference rows ``f_k`` in K,
    with weights ``tau_k``, total ``T_K`` and weighted mean ``m_K``,

        sum_k tau_k Q(c_K - f_k) = T_K Q(c_K - m_K) + sum_k tau_k Q(f_k - m_K)

    exactly (Chan, Golub and LeVeque, Amer. Stat. 37, 1983).  Both terms
    are weighted sums of squares, so nothing cancels, and the second is the
    scatter the moments carry: ``E1^2 = sum_K (T_K g(c_K - m_K) + stiff_K)
    / h`` and ``E2^2 = h sum_K (T_K (s0 - g / 6)(c_K - m_K) + mass_K)``.  A
    field's rows count as ratio-1 moments; with moments coarsened to the
    coarse grid (:meth:`BlockMoments.coarsen`) the call costs the coarse
    field's size, not the reference's.

    The means' rounding does not reach the errors.  The difference is
    formed as ``(means - c) + lows``: the low part, the naive mean's own
    rounding error (up to about ``r u |f|`` for ``r`` rows, ``u = 2^-53``),
    is itself computed to a relative ``u``, so the difference is as
    accurate as one taken from the rows.  A plain float mean would add up
    to ``u |f|`` to each difference, ``2 u |f| / |c - m|`` relative in E^2.
    """
    moments = reference if isinstance(reference, BlockMoments) else \
        BlockMoments.of_values(reference.grid, reference.mesh, reference.values)
    moments.ratio(coarse.grid)
    same_mesh = coarse.mesh == moments.mesh

    def prolonged(block):
        values = coarse.values[block]
        return values if same_mesh else fem1d.prolong_rows(values, coarse.mesh, moments.mesh)

    mass, stiff = _block_forms(moments, coarse.grid.num_steps, prolonged)
    h = moments.mesh.h
    return math.sqrt(float(np.sum(stiff)) / h), math.sqrt(h * float(np.sum(mass)))


# ---------------------------------------------------------------------------
# reference cache: one file per entry (key text, crc32 line, <f8 payload)
# ---------------------------------------------------------------------------

def _cache_key(meta: dict) -> bytes:
    lines = [f"{key}={format_float(value) if isinstance(value, float) else value}\n"
             for key, value in sorted(meta.items())]
    return "".join(lines).encode()


def _cache_path(cache_dir: str, key: bytes) -> str:
    return os.path.join(cache_dir, f"ref_{hashlib.sha256(key).hexdigest()[:24]}.bin")


@functools.cache
def _source_digest() -> str:
    """sha256 of the numerics modules' source bytes and the numpy and scipy versions."""
    digest = hashlib.sha256(f"numpy={np.__version__} scipy={scipy.__version__}".encode())
    for name in ("errors", "gammafn", "fem1d", "fracops", "assembly", "solver", "harness"):
        with open(os.path.join(os.path.dirname(__file__), f"{name}.py"), "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def _reference_meta(plan: SweepPlan) -> dict:
    """The cache key of ``plan``'s reference moments on its finest level's grid.
    Its ``format`` is :func:`_source_digest`: an edit to a numerics module, a
    docstring's included, makes every entry written before it a miss."""
    ref_nx, ref_nt = plan.reference
    meta = {"format": _source_digest(), "experiment": plan.experiment,
            "alpha": float(plan.alpha),
            "n_cells": str(ref_nx), "num_steps": str(ref_nt),
            "moment_steps": str(max(nt for _, nt in plan.levels))}
    for key in sorted(plan.params):
        meta[f"param_{key}"] = float(plan.params[key])
    return meta


def _checksum_line(payload: np.ndarray) -> bytes:
    return f"crc32={zlib.crc32(payload)}\n".encode()


def load_cached_reference(cache_dir: str, meta: dict,
                          shape: tuple[int, ...]) -> np.ndarray | None:
    """The entry stored under ``meta``, or ``None`` when it cannot be served.

    An entry is served only when it holds ``meta`` and the payload's crc32
    line, byte for byte as :func:`store_reference` wrote them, then exactly
    ``shape``'s size of finite values; other bytes or no entry are a miss.
    Any other ``OSError``, say a directory in the entry's place, propagates:
    as a miss it would fail at the rename, after the solve.
    """
    key = _cache_key(meta)
    data = np.empty(math.prod(shape), dtype="<f8")
    try:
        with open(_cache_path(cache_dir, key), "rb") as fh:
            header = fh.read(len(key)) + fh.readline()
            complete = fh.readinto(data) == data.nbytes and not fh.read(1)
    except FileNotFoundError:
        return None
    # the one finiteness check of a cached reference, never wrapped in a SpaceTimeField
    if (not complete or header != key + _checksum_line(data)
            or not np.isfinite(data).all()):
        return None
    return data.reshape(shape)


def store_reference(cache_dir: str, meta: dict, values: np.ndarray) -> None:
    """Write one cache entry, ``meta`` and the payload's crc32 line before
    the payload, to a temporary file published by one rename.
    """
    os.makedirs(cache_dir, exist_ok=True)
    key = _cache_key(meta)
    path = _cache_path(cache_dir, key)
    payload = np.ascontiguousarray(values, dtype="<f8")
    tmp_path = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp_path, "xb") as fh:
            fh.write(key + _checksum_line(payload))
            fh.write(payload)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

def _reference_moments(plan: SweepPlan, spec, cache_dir: str | None):
    """The reference's moments on the finest level's time grid, cached or solved.

    A cache entry holds exactly these moments (:meth:`BlockMoments.payload`),
    keyed by the reference and the finest level's step count, so a plan with
    another finest level misses and solves again.  Cold, warm and uncached
    runs all coarsen from the same flat payload, so their results agree bit
    for bit.  Returns the moments and the solve's energy gap (0 on a hit).
    """
    ref_nx, ref_nt = plan.reference
    finest = max(nt for _, nt in plan.levels)
    grid, mesh = TemporalGrid.uniform(finest), fem1d.Mesh1D(ref_nx)
    size = finest * (mesh.n_interior if finest == ref_nt else 2 * mesh.n_interior + 2)
    if cache_dir is not None:  # an uncached sweep reads no source file
        meta = _reference_meta(plan)
        payload = load_cached_reference(cache_dir, meta, (size,))
        if payload is not None:
            return BlockMoments.from_payload(grid, mesh, payload), 0.0
    field, report = solver.solve(spec, TemporalGrid.uniform(ref_nt), mesh)
    payload = BlockMoments.of_values(field.grid, mesh, field.values).coarsen(grid).payload()
    if cache_dir is not None:
        store_reference(cache_dir, meta, payload)
    return BlockMoments.from_payload(grid, mesh, payload), report.energy_gap


def run_sweep(plan: SweepPlan, cache_dir: str | None = None) -> ConvergenceTable:
    """Execute a sweep plan and return its convergence table.

    The reference's moments on the finest level's time grid are cached on
    disk under ``cache_dir``, keyed by :func:`_reference_meta`; ``None``
    means no cache, and no source file is read.  The reference and every
    level are checked against the budget first, so an oversized one raises
    :class:`BudgetError` before any grid is built, the cache is read or a
    level is solved.  Levels are solved finest first; the rows keep the
    plan's order.  A level whose errors are not finite raises
    :class:`SolverError`.
    """
    start = time.perf_counter()
    spec = experiment_problem(plan.experiment, plan.alpha, **plan.params)
    if plan.reference is None and spec.exact is None:
        raise DomainError(f"experiment {plan.experiment!r} has no exact solution; "
                          "the sweep needs a reference level")

    sizes = plan.levels if plan.reference is None else (plan.reference, *plan.levels)
    for n_cells, num_steps in sizes:
        solver.check_budget(n_cells, num_steps)

    max_gap = 0.0
    reference = None
    if plan.reference is not None:
        reference, max_gap = _reference_moments(plan, spec, cache_dir)

    # finest first, so that each level's moments coarsen the previous level's
    rows = [None] * len(plan.levels)
    for i in sorted(range(len(plan.levels)), key=lambda i: plan.levels[i][1], reverse=True):
        n_cells, num_steps = plan.levels[i]
        level_field, report = solver.solve(
            spec, TemporalGrid.uniform(num_steps), fem1d.Mesh1D(n_cells))
        max_gap = float(np.maximum(max_gap, report.energy_gap))  # keeps a NaN
        if reference is not None:
            reference = reference.coarsen(level_field.grid)
            e1, e2 = space_time_error(level_field, reference)
        else:
            e1, e2 = spec.exact.error_norms(level_field)
        if not (math.isfinite(e1) and math.isfinite(e2)):
            raise SolverError(f"level ({n_cells}, {num_steps}): errors E1={e1}, "
                              f"E2={e2} are not finite")
        rows[i] = {"h": 1.0 / n_cells, "tau": 1.0 / num_steps,
                   "E1": e1, "order1": None, "E2": e2, "order2": None}

    e1s = [row["E1"] for row in rows]
    e2s = [row["E2"] for row in rows]
    if len(rows) >= 2 and all(e > 0.0 for e in e1s) and all(e > 0.0 for e in e2s):
        for i, (o1, o2) in enumerate(zip(order_fit(e1s), order_fit(e2s)), start=1):
            rows[i]["order1"] = o1
            rows[i]["order2"] = o2

    ref_nx, ref_nt = plan.reference or (None, None)
    meta = {
        "alpha": plan.alpha,
        "experiment": plan.experiment,
        "params": {k: plan.params[k] for k in sorted(plan.params)},
        "h_ref": None if ref_nx is None else 1.0 / ref_nx,
        "tau_ref": None if ref_nt is None else 1.0 / ref_nt,
        "axis": plan.axis,
        "error_mode": "exact" if plan.reference is None else "reference",
        "max_energy_gap": max_gap,
        "runtime_s": time.perf_counter() - start,
    }
    return ConvergenceTable(rows=rows, meta=meta)


# ---------------------------------------------------------------------------
# desk-scale default plans
# ---------------------------------------------------------------------------

def default_plan(experiment: str, axis: str, alpha: float | None = None,
                 params: dict | None = None, nx: int | None = None,
                 nt: int | None = None, count: int | None = None,
                 reference: tuple[int, int] | None = None) -> SweepPlan:
    """Desk-scale plan for a registered experiment, with optional overrides.

    ``nx``/``nt`` set the coarsest swept resolution on the refined axis and
    the fixed resolution on the other; ``count`` is the number of dyadic
    levels; ``params`` update the plan's own.  The acceptance-scale defaults
    match the shipped order checks.  More levels than ``BUDGET`` has bits
    raise :class:`BudgetError` before any level is built.
    """
    entry = EXPERIMENTS.get(experiment)
    if entry is None or axis not in entry.plans:
        raise DomainError(f"no default plan for {experiment!r} on axis {axis!r}")
    cfg = entry.plans[axis]
    alpha = cfg["alpha"] if alpha is None else alpha
    nx = cfg["nx"] if nx is None else nx
    nt = cfg["nt"] if nt is None else nt
    count = cfg["count"] if count is None else count
    if count > BUDGET.bit_length():  # the finest level alone would exceed it
        raise BudgetError(f"{count} dyadic levels exceed the budget of {BUDGET}")
    reference = cfg["reference"] if reference is None else reference
    levels = tuple((nx * (1 << i), nt) if axis == AXIS_SPACE else (nx, nt * (1 << i))
                   for i in range(count))
    return SweepPlan(experiment=experiment, alpha=alpha, axis=axis, levels=levels,
                     reference=reference, params={**cfg["params"], **(params or {})})
