"""Causal space-time Galerkin marching for the fractional diffusion scheme.

Stepping ``k = 1..J`` on a uniform time grid solves

    (G_00 M + tau K) U_k = F_k - M sum_{j<k} G_kj U_j,

one symmetric positive definite tridiagonal system per step.  The step
matrix is the same for every step, so it is built and factored (LAPACK
``L D L^T``, ``dpttrf``) once per solve; each step then runs only the
``dpttrs`` substitutions.  A nonuniform grid raises :class:`DomainError` in
:func:`temporal_weights`, before anything is allocated.

The history sum is split causally over the steps (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).  A range of more than
``HISTORY_BLOCK`` steps is halved: the first half is solved, its history
contribution to every row of the second half is added in place, in one
batched product (:meth:`TemporalWeightMatrix.history_block`: one dense
block product up to ``fracops.DENSE_MERGE`` steps, a chunked FFT
convolution along time above it), and the second half is solved.  Shorter
ranges, the leaves, march step by step.  A weight depends on its lag alone,
so a solve gathers one ``HISTORY_BLOCK``-square near block and each leaf
reads its top-left corner; the history within the leaf is one row of it
times the leaf's solved steps.  Each step runs in place in its row of the
field: that history is added, the mass product goes into the leaf's
history buffer, the right-hand side is subtracted into the row, and
:meth:`fem1d.ThomasFactor.solve` overwrites the row with the solution.  On
the uniform mesh the off-diagonal bands are constant, so the mass product
and the step matrix's action each take one product for both bands.  The
loop costs O(N J log^2 J) instead of the naive O(N J^2).  The naive sum
stays in the oracles: :func:`scalar_solve` and :func:`energy_identity_gap`
read one whole weight row ``G[k, :k+1]`` per step, and the property suite
compares them and a naive dense march with this loop.
:meth:`TemporalWeightMatrix.history_dot` is kept only for the tests and the
benchmark's tracer.

Each leaf reads its load rows through one callable, ``rows(steps)``: the
spec's :class:`assembly.Load`, built once per solve, or a view of a given
load array.  Its steps' mass-weighted history rows go into one buffer,
allocated once per solve; after the leaf, the step residuals and the energy
identity are computed for all of its steps at once, and a failing residual
raises :class:`SolverError` naming the first bad step.  So a solve holds
its field, its load terms and one leaf's buffers, never a whole load array
or merge product.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import assembly, fem1d
from .errors import BUDGET, BudgetError, DomainError, SolverError
from .fracops import TemporalGrid, TemporalWeightMatrix, temporal_weights

RESIDUAL_TOL = 1e-12
HISTORY_BLOCK = 64  # longest step range marched with the direct history sum


@dataclass(frozen=True)
class SpaceTimeField:
    """Discrete solution: one row of interior nodal values per time interval."""

    grid: TemporalGrid
    mesh: fem1d.Mesh1D
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.num_steps, self.mesh.n_interior):
            raise DomainError(
                f"field shape {values.shape} does not match grid/mesh "
                f"({self.grid.num_steps}, {self.mesh.n_interior})")
        if not np.all(np.isfinite(values)):
            raise DomainError("field values must be finite")


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics of one marched solve; one residual norm per step."""

    residual_norms: np.ndarray
    wall_time: float
    energy_gap: float


def _causal_blocks(lo: int, hi: int):
    """Yield the divide-and-conquer over steps ``[lo, hi)`` in the order it runs.

    ``(lo, mid, hi)`` with ``mid == hi`` is a leaf, marched step by step;
    otherwise it adds the history of the solved steps ``[lo, mid)`` to the
    rows ``[mid, hi)``.  The tree depends only on ``hi - lo``, never on data.
    """
    if hi - lo <= HISTORY_BLOCK:
        yield lo, hi, hi
        return
    mid = (lo + hi) // 2
    yield from _causal_blocks(lo, mid)
    yield lo, mid, hi
    yield from _causal_blocks(mid, hi)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: ``np.linalg.norm(x, axis=1)`` of a real
    array, without its conjugate copy."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def check_budget(n_cells: int, num_steps: int) -> None:
    """:class:`BudgetError` if a solve of ``n_cells`` cells and ``num_steps``
    steps would exceed ``BUDGET`` space-time unknowns."""
    if n_cells * num_steps > BUDGET:
        raise BudgetError(f"solve ({n_cells} cells, {num_steps} steps) "
                          f"exceeds the budget of {BUDGET} space-time unknowns")


def solve(spec: assembly.ProblemSpec, grid: TemporalGrid, mesh: fem1d.Mesh1D,
          loads: np.ndarray | None = None):
    """March the space-time system on a uniform grid; returns the field and a report.

    Each leaf reads its rows of ``loads``, a (J, N) array, or else of the
    spec's load terms.  Over ``BUDGET`` cells times steps raise
    :class:`BudgetError`, and a nonuniform grid :class:`DomainError`, before
    anything is allocated.  Each step's linear residual, relative to the
    step right-hand side, must stay within ``RESIDUAL_TOL``; the Galerkin
    energy identity is accumulated per leaf from explicit matrix actions and
    reported as a relative gap.  Both are checked once per leaf, after its
    steps have run in place in the field's rows.  A residual or an energy gap that is not
    finite raises :class:`SolverError`.
    """
    check_budget(mesh.n_cells, grid.num_steps)
    start = time.perf_counter()
    weights = temporal_weights(grid, spec.alpha)
    J, N = grid.num_steps, mesh.n_interior
    if loads is not None and loads.shape != (J, N):
        raise DomainError(f"load array shape {loads.shape} != ({J}, {N})")
    # built here, so a data error (an aliasing mode) raises before any step
    rows = (assembly.load_terms(spec, grid, mesh).rows if loads is None
            else loads.__getitem__)

    mass = fem1d.assemble_mass(mesh)
    stiffness = fem1d.assemble_stiffness(mesh)
    # a weight depends on its lag alone, so every leaf's block G[steps, steps]
    # is the top-left corner of this one
    near = weights.block(slice(0, HISTORY_BLOCK), slice(0, HISTORY_BLOCK))
    # the one step matrix G_00 M + tau K, its factor and its norm
    diag_weight = float(near[0, 0])
    if not diag_weight > 0.0:
        raise SolverError(f"non-positive diagonal weight {diag_weight}")
    tau = grid.tau[0]
    step_matrix = fem1d.TridiagonalMatrix(diag_weight * mass.diag + tau * stiffness.diag,
                                          diag_weight * mass.off + tau * stiffness.off)
    factor = step_matrix.factor()
    # normwise backward-error scale ||A|| ||u|| + ||rhs||, so the residual
    # check stays meaningful when the stiffness part dominates on fine meshes
    matrix_norm = (np.max(np.abs(step_matrix.diag))
                   + 2.0 * np.max(np.abs(step_matrix.off), initial=0.0))
    # the uniform mesh's off-diagonal bands are constant (empty for N = 1),
    # so each matrix action takes one product for both of them
    mass_off, step_off = (mass.off[0], step_matrix.off[0]) if N > 1 else (0.0, 0.0)

    values = np.zeros((J, N))
    residuals = np.empty(J)
    hist = np.empty((len(near), N))  # a leaf's mass-weighted history rows
    off_product = np.empty(N)
    lhs_energy = 0.0
    rhs_energy = 0.0

    # the checks below refuse the infinities and NaNs of overflowing data
    with np.errstate(over="ignore", invalid="ignore"):
        # rows not solved yet accumulate the history of the earlier blocks
        for lo, mid, hi in _causal_blocks(0, J):
            if mid < hi:
                weights.history_block(values, lo, mid, hi)
                continue
            steps = slice(lo, hi)
            leaf_loads = rows(steps)
            for i, k in enumerate(range(lo, hi)):
                x, y = values[k], hist[i]
                x += near[i, :i] @ values[lo:k]
                np.multiply(mass.diag, x, out=y)
                np.multiply(mass_off, x, out=off_product)
                y[:-1] += off_product[1:]
                y[1:] += off_product[:-1]
                np.subtract(leaf_loads[i], y, out=x)
                factor.solve(x)

            # residual and energy checks for the whole leaf
            u = values[steps]
            leaf_hist = hist[:hi - lo]
            rhs = leaf_loads - leaf_hist
            action = step_matrix.diag * u
            off_products = step_off * u
            action[:, :-1] += off_products[:, 1:]
            action[:, 1:] += off_products[:, :-1]
            scale = np.maximum(matrix_norm * _row_norms(u) + _row_norms(rhs), 1e-300)
            leaf_hist += action  # the left side of the energy identity
            action -= rhs
            residuals[steps] = _row_norms(action) / scale
            bad = np.flatnonzero(~(residuals[steps] <= RESIDUAL_TOL))  # NaN fails too
            if bad.size:
                k = lo + bad[0]
                raise SolverError(
                    f"step {k} residual {residuals[k]:.3e} exceeds {RESIDUAL_TOL:.1e}")
            lhs_energy += float(np.vdot(u, leaf_hist))
            rhs_energy += float(np.vdot(u, leaf_loads))
            # free the leaf's arrays before the next merge allocates its own
            del rhs, action, off_products, leaf_loads

    gap = abs(lhs_energy - rhs_energy) / max(abs(lhs_energy), abs(rhs_energy), 1e-300)
    if not math.isfinite(gap):
        raise SolverError(f"energy gap {gap} is not finite")
    report = SolveReport(residual_norms=residuals,
                         wall_time=time.perf_counter() - start, energy_gap=gap)
    return SpaceTimeField(grid, mesh, values), report


def scalar_solve(alpha: float, lam: float, grid: TemporalGrid, y0: float,
                 g_factors: np.ndarray | None = None) -> np.ndarray:
    """Causal recursion for the scalar analogue with reaction rate ``lam``.

    ``(G_kk + tau_k lam) y_k = y0 ifac_k + g_k - sum_{j<k} G_kj y_j`` where
    ``ifac`` are the initial-value time factors and ``g_k`` the per-interval
    source integrals.  ``lam = 0`` is admitted: the diagonal weight alone
    keeps every step nonsingular.
    """
    if lam < 0.0:
        raise DomainError(f"reaction rate must be nonnegative, got {lam}")
    weights = temporal_weights(grid, alpha)
    J = grid.num_steps
    rhs = float(y0) * assembly.initial_time_factors(grid, alpha)
    if g_factors is not None:
        g_factors = np.asarray(g_factors, dtype=float)
        if g_factors.shape != (J,):
            raise DomainError("need one source factor per interval")
        rhs = rhs + g_factors
    tau = grid.tau
    y = np.zeros(J)
    for k in range(J):
        row = weights.block(slice(k, k + 1), slice(0, k + 1))[0]
        y[k] = (rhs[k] - float(row[:k] @ y[:k])) / (row[k] + tau[k] * lam)
    return y


def energy_identity_gap(field: SpaceTimeField, weights: TemporalWeightMatrix,
                        loads: np.ndarray) -> float:
    """Recompute the Galerkin energy identity from scratch.

    Independent post-hoc evaluation of
    ``sum_k U_k . (M sum_{j<=k} G_kj U_j + tau_k K U_k) = sum_k U_k . F_k``
    as a relative gap; the solver's in-march accumulation must agree with it.
    """
    mass = fem1d.assemble_mass(field.mesh)
    stiffness = fem1d.assemble_stiffness(field.mesh)
    tau = field.grid.tau
    values = field.values
    lhs = 0.0
    rhs = 0.0
    for k in range(field.grid.num_steps):
        row = weights.block(slice(k, k + 1), slice(0, k + 1))[0]
        action = mass.matvec(row @ values[:k + 1])
        action += tau[k] * stiffness.matvec(values[k])
        lhs += float(values[k] @ action)
        rhs += float(values[k] @ loads[k])
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def dense_block_solve(grid: TemporalGrid, mesh: fem1d.Mesh1D, alpha: float,
                      loads: np.ndarray) -> np.ndarray:
    """Brute-force oracle: assemble and solve the full block system densely.

    Builds the (JN) x (JN) lower-block-triangular matrix explicitly and calls
    a dense solver; only sensible for small J and N.  More than ``BUDGET``
    matrix entries raise :class:`BudgetError` before anything is allocated.
    """
    J, N = grid.num_steps, mesh.n_interior
    if (J * N) ** 2 > BUDGET:
        raise BudgetError(f"dense block system ({J} steps, {N} unknowns) exceeds "
                          f"the budget of {BUDGET} matrix entries")
    mass = fem1d.assemble_mass(mesh).to_dense()
    stiffness = fem1d.assemble_stiffness(mesh).to_dense()
    big = (np.kron(temporal_weights(grid, alpha).dense(), mass)
           + np.kron(np.diag(grid.tau), stiffness))
    flat = np.linalg.solve(big, loads.reshape(J * N))
    return flat.reshape(J, N)
