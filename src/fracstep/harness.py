"""Convergence-study engine: experiments, refinement sweeps, orders, caching.

``EXPERIMENTS`` is the one place an experiment is defined.  Keyed by the
canonical tag, each record holds the CLI aliases, the data parameters with
their defaults, a mesh-free spec builder and the desk-scale plan per axis;
the CLI, the sweeps and the property suite all read it.

A sweep solves a reference problem on a fine nested grid once, solves each
coarser level once, and integrates the space-time errors exactly on the
common refinement (the difference is piecewise constant in time and
piecewise linear in space, so no sampling is involved).  Observed orders are
base-2 logarithms of consecutive error ratios on dyadic levels.

Desk-scale defaults keep the reference resolutions modest; the sweeps check
orders, not absolute error digits.
"""

import hashlib
import math
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import assembly, fem1d, solver
from .errors import DomainError, NestingError
from .fracops import TemporalGrid, check_alpha

AXIS_SPACE = "space"
AXIS_TIME = "time"
ERROR_VS_REFERENCE = "reference"
ERROR_VS_EXACT = "exact"

CACHE_ENV_VAR = "FRACSTEP_CACHE_DIR"
# Part of every reference-cache key.  Change it whenever the solver's results
# change, so that entries written by earlier numerics are never served.
_CACHE_FORMAT = "5"

ERROR_CHUNK = 1 << 16  # elements of a level-reference difference formed at once


# ---------------------------------------------------------------------------
# experiment table: the one place an experiment is defined
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """One registered experiment.

    ``aliases`` are the names ``fracstep --experiment`` accepts.  ``params``
    maps each data parameter to its default, ``None`` where it is required.
    ``build(alpha, final_time=1.0, **params)`` returns the mesh-free spec.
    ``plans`` maps an axis to the desk-scale settings of :func:`default_plan`.
    """

    aliases: tuple[str, ...]
    params: dict
    build: Callable[..., assembly.ProblemSpec]
    plans: dict


def _experiment1(alpha, final_time=1.0, *, r, sigma):
    """Initial value ``x^r`` and source ``x^r t^-sigma``."""
    return assembly.ProblemSpec(
        alpha=alpha, final_time=final_time,
        initial=assembly.InitialData(kind="power", scale=1.0, exponent=r),
        sources=(assembly.SourceTerm(assembly.SPATIAL_POWER, r, -sigma),))


def _experiment2(alpha, final_time=1.0, *, c):
    """Initial value ``c x^-0.49`` (none for c = 0) and source ``x^-0.8 t^-0.49``."""
    initial = None
    if c != 0.0:
        initial = assembly.InitialData(kind="power", scale=c, exponent=-0.49)
    return assembly.ProblemSpec(
        alpha=alpha, final_time=final_time, initial=initial,
        sources=(assembly.SourceTerm(assembly.SPATIAL_POWER, -0.8, -0.49),))


def _experiment3(alpha, final_time=1.0):
    """Zero initial value and source ``x^-0.49 t^-0.29``."""
    return assembly.ProblemSpec(
        alpha=alpha, final_time=final_time,
        sources=(assembly.SourceTerm(assembly.SPATIAL_POWER, -0.49, -0.29),))


def _spectral(alpha, final_time=1.0, *, mode):
    return assembly.spectral_test_problem(mode, alpha, final_time)


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
        aliases=("manufactured",), params={}, build=assembly.manufactured_problem,
        plans={AXIS_SPACE: dict(alpha=0.8, params={}, nx=8, nt=1024, count=5,
                                reference=(2048, 1024)),
               AXIS_TIME: dict(alpha=0.8, params={}, nx=256, nt=16, count=6,
                               reference=None, error_mode=ERROR_VS_EXACT)}),
    "spectral_test": Experiment(
        aliases=("spectral",), params={"mode": None}, build=_spectral, plans={}),
}


def experiment_problem(experiment: str, alpha: float, final_time: float = 1.0,
                       **params) -> assembly.ProblemSpec:
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
    return entry.build(alpha, final_time, **values)

# ---------------------------------------------------------------------------
# sweep plans and tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPlan:
    """One refinement study: problem, levels, reference, error mode."""

    experiment: str
    alpha: float
    axis: str
    levels: tuple[tuple[int, int], ...]  # (n_cells, num_steps) per level
    reference: tuple[int, int] | None
    params: dict = dataclass_field(default_factory=dict)
    final_time: float = 1.0
    error_mode: str = ERROR_VS_REFERENCE

    def __post_init__(self):
        if self.axis not in (AXIS_SPACE, AXIS_TIME):
            raise DomainError(f"axis must be 'space' or 'time', got {self.axis!r}")
        if self.error_mode not in (ERROR_VS_REFERENCE, ERROR_VS_EXACT):
            raise DomainError(f"unknown error mode {self.error_mode!r}")
        if not self.levels:
            raise DomainError("a sweep needs at least one level")
        if self.error_mode == ERROR_VS_REFERENCE:
            if self.reference is None:
                raise DomainError("reference-based sweep needs a reference level")
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
    check_alpha(alpha)
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

def space_time_error(coarse: solver.SpaceTimeField,
                     fine: solver.SpaceTimeField) -> tuple[float, float]:
    """(E1, E2) distances between nested discrete solutions, exactly.

    The coarse field is prolonged to the fine mesh (exact for P1; skipped
    when the meshes are equal) and held constant over the fine time
    intervals of each coarse interval.  The fine values are read through a
    ``(J_c, r, N)`` view and the difference is formed in chunks of about
    ``ERROR_CHUNK`` elements, each row padded with its zero boundary values.
    For a padded row ``d`` with ``s0 = sum d_i^2`` and ``g = sum (d_{i+1} -
    d_i)^2``, the P1 mass and stiffness forms are ``h s0 - h g / 6`` and
    ``g / h``, so

        E1^2 = sum_k tau_k g_k / h,    E2^2 = h sum_k tau_k (s0_k - g_k / 6).

    The stiffness form is a sum of squared first differences, free of the
    cancellation in ``2 sum d_i^2 - 2 sum d_i d_{i+1}`` when ``d`` is smooth.
    """
    num_coarse = coarse.grid.num_steps
    ratio_t = fine.grid.num_steps // max(num_coarse, 1)
    if ratio_t * num_coarse != fine.grid.num_steps:
        raise NestingError("time grids are not nested")
    if not np.allclose(fine.grid.nodes[::ratio_t], coarse.grid.nodes,
                       rtol=0.0, atol=1e-14 * fine.grid.final_time):
        raise NestingError("time grids do not share nodes")
    n = fine.mesh.n_interior
    same_mesh = coarse.mesh == fine.mesh
    # a chunk is (rows coarse intervals) x (sub fine intervals) x (n + 2);
    # a coarse interval too long for one chunk is split into equal parts
    parts = -(-ratio_t * (n + 2) // ERROR_CHUNK)
    sub = -(-ratio_t // parts)
    rows = max(1, ERROR_CHUNK // (sub * (n + 2)))
    padded = np.zeros((rows, sub, n + 2))
    diffs = np.empty((rows, sub, n + 1))
    fine_values = fine.values.reshape(num_coarse, ratio_t, n)
    s0 = np.empty((num_coarse, ratio_t))
    g = np.empty((num_coarse, ratio_t))
    for j in range(0, num_coarse, rows):
        block = coarse.values[j:j + rows]
        if not same_mesh:
            block = fem1d.prolong_rows(block, coarse.mesh, fine.mesh)
        for i in range(0, ratio_t, sub):
            d = padded[:len(block), :min(sub, ratio_t - i)]
            delta = diffs[:d.shape[0], :d.shape[1]]
            np.subtract(block[:, None, :], fine_values[j:j + rows, i:i + sub],
                        out=d[..., 1:-1])
            np.subtract(d[..., 1:], d[..., :-1], out=delta)
            s0[j:j + rows, i:i + sub] = np.einsum("...k,...k->...", d, d)
            g[j:j + rows, i:i + sub] = np.einsum("...k,...k->...", delta, delta)
    tau = fine.grid.tau.reshape(num_coarse, ratio_t)
    h = fine.mesh.h
    e1 = math.sqrt(float(np.sum(tau * g)) / h)
    e2 = math.sqrt(h * float(np.sum(tau * (s0 - g / 6.0))))
    return e1, e2


# ---------------------------------------------------------------------------
# reference cache (flat little-endian float64 + text sidecar)
# ---------------------------------------------------------------------------

def cache_directory(explicit: str | None = None) -> str | None:
    if explicit is not None:
        return explicit
    return os.environ.get(CACHE_ENV_VAR)


def _cache_meta_text(meta: dict) -> str:
    lines = [f"{key}={format_float(value) if isinstance(value, float) else value}"
             for key, value in sorted(meta.items())]
    return "\n".join(lines) + "\n"


def _cache_paths(cache_dir: str, meta_text: str) -> tuple[str, str]:
    digest = hashlib.sha256(meta_text.encode()).hexdigest()[:24]
    base = os.path.join(cache_dir, f"ref_{digest}")
    return base + ".bin", base + ".meta"


def _reference_meta(plan: SweepPlan, n_cells: int, num_steps: int) -> dict:
    meta = {"format": _CACHE_FORMAT, "experiment": plan.experiment,
            "alpha": float(plan.alpha), "T": float(plan.final_time),
            "n_cells": str(n_cells), "num_steps": str(num_steps)}
    for key in sorted(plan.params):
        meta[f"param_{key}"] = float(plan.params[key])
    return meta


def load_cached_reference(cache_dir: str, meta: dict,
                          shape: tuple[int, int]) -> np.ndarray | None:
    meta_text = _cache_meta_text(meta)
    bin_path, meta_path = _cache_paths(cache_dir, meta_text)
    if not (os.path.exists(bin_path) and os.path.exists(meta_path)):
        return None
    with open(meta_path, "r") as fh:
        if fh.read() != meta_text:  # any metadata mismatch invalidates
            return None
    data = np.fromfile(bin_path, dtype="<f8")
    if data.size != shape[0] * shape[1]:
        return None
    return data.reshape(shape)


def _write_by_rename(path: str, write) -> None:
    """Let ``write(fh)`` fill a temporary file beside ``path``, then rename it."""
    tmp_path = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp_path, "xb") as fh:
            write(fh)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


def store_reference(cache_dir: str, meta: dict, values: np.ndarray) -> None:
    """Write one cache entry; the sidecar lands last, so a torn entry is a miss."""
    os.makedirs(cache_dir, exist_ok=True)
    meta_text = _cache_meta_text(meta)
    bin_path, meta_path = _cache_paths(cache_dir, meta_text)
    _write_by_rename(bin_path, np.asarray(values, dtype="<f8").tofile)
    _write_by_rename(meta_path, lambda fh: fh.write(meta_text.encode()))


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

def _solve_level(spec, n_cells: int, num_steps: int):
    grid = TemporalGrid.uniform(num_steps, spec.final_time)
    mesh = fem1d.Mesh1D(n_cells)
    return solver.solve(spec, grid, mesh)


def run_sweep(plan: SweepPlan, cache_dir: str | None = None) -> ConvergenceTable:
    """Execute a sweep plan and return its convergence table.

    The reference solution is cached on disk (keyed by experiment, alpha,
    data parameters and resolutions) when a cache directory is configured,
    either explicitly or through the ``FRACSTEP_CACHE_DIR`` environment
    variable.
    """
    start = time.perf_counter()
    spec = experiment_problem(plan.experiment, plan.alpha,
                              final_time=plan.final_time, **plan.params)
    if plan.error_mode == ERROR_VS_EXACT and spec.exact is None:
        raise DomainError(f"experiment {plan.experiment!r} has no exact solution")

    cache_dir = cache_directory(cache_dir)
    max_gap = 0.0

    reference_field = None
    if plan.error_mode == ERROR_VS_REFERENCE:
        ref_nx, ref_nt = plan.reference
        shape = (ref_nt, ref_nx - 1)
        meta = _reference_meta(plan, ref_nx, ref_nt)
        cached = None
        if cache_dir is not None:
            cached = load_cached_reference(cache_dir, meta, shape)
        if cached is not None:
            reference_field = solver.SpaceTimeField(
                TemporalGrid.uniform(ref_nt, spec.final_time),
                fem1d.Mesh1D(ref_nx), cached)
        else:
            reference_field, report = _solve_level(spec, ref_nx, ref_nt)
            max_gap = max(max_gap, report.energy_gap)
            if cache_dir is not None:
                store_reference(cache_dir, meta, reference_field.values)

    rows = []
    e1s, e2s = [], []
    for n_cells, num_steps in plan.levels:
        level_field, report = _solve_level(spec, n_cells, num_steps)
        max_gap = max(max_gap, report.energy_gap)
        if plan.error_mode == ERROR_VS_REFERENCE:
            e1, e2 = space_time_error(level_field, reference_field)
        else:
            e1, e2 = spec.exact.error_norms(level_field.grid, level_field.mesh,
                                            level_field.values)
        e1s.append(e1)
        e2s.append(e2)
        rows.append({"h": 1.0 / n_cells, "tau": spec.final_time / num_steps,
                     "E1": e1, "order1": None, "E2": e2, "order2": None})

    if len(rows) >= 2 and all(e > 0.0 for e in e1s) and all(e > 0.0 for e in e2s):
        for i, (o1, o2) in enumerate(zip(order_fit(e1s), order_fit(e2s)), start=1):
            rows[i]["order1"] = o1
            rows[i]["order2"] = o2

    ref_nx, ref_nt = plan.reference if plan.reference is not None else (None, None)
    meta = {
        "alpha": plan.alpha,
        "experiment": plan.experiment,
        "params": {k: plan.params[k] for k in sorted(plan.params)},
        "h_ref": None if ref_nx is None else 1.0 / ref_nx,
        "tau_ref": None if ref_nt is None else plan.final_time / ref_nt,
        "axis": plan.axis,
        "error_mode": plan.error_mode,
        "max_energy_gap": max_gap,
        "runtime_s": time.perf_counter() - start,
    }
    return ConvergenceTable(rows=rows, meta=meta)


# ---------------------------------------------------------------------------
# desk-scale default plans
# ---------------------------------------------------------------------------

def _geometric_levels(axis, nx, nt, count):
    if axis == AXIS_SPACE:
        return tuple((nx * (1 << i), nt) for i in range(count))
    return tuple((nx, nt * (1 << i)) for i in range(count))


def default_plan(experiment: str, axis: str, alpha: float | None = None,
                 params: dict | None = None, nx: int | None = None,
                 nt: int | None = None, count: int | None = None,
                 reference: tuple[int, int] | None = None) -> SweepPlan:
    """Desk-scale plan for a registered experiment, with optional overrides.

    ``nx``/``nt`` set the coarsest swept resolution on the refined axis and
    the fixed resolution on the other; ``count`` is the number of dyadic
    levels; ``params`` update the plan's own.  The acceptance-scale defaults
    match the shipped order checks.
    """
    entry = EXPERIMENTS.get(experiment)
    if entry is None or axis not in entry.plans:
        raise DomainError(f"no default plan for {experiment!r} on axis {axis!r}")
    cfg = entry.plans[axis]
    alpha = cfg["alpha"] if alpha is None else alpha
    merged_params = dict(cfg["params"])
    if params:
        merged_params.update(params)
    nx = cfg["nx"] if nx is None else nx
    nt = cfg["nt"] if nt is None else nt
    count = cfg["count"] if count is None else count
    reference = cfg["reference"] if reference is None else reference
    return SweepPlan(
        experiment=experiment, alpha=alpha, axis=axis,
        levels=_geometric_levels(axis, nx, nt, count),
        reference=reference, params=merged_params,
        error_mode=cfg.get("error_mode", ERROR_VS_REFERENCE))
