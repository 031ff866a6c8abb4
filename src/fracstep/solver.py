"""Causal space-time Galerkin marching for the fractional diffusion scheme.

Stepping ``k = 1..J`` solves

    (G_kk M + tau_k K) U_k = F_k - M sum_{j<k} G_kj U_j,

one symmetric positive definite tridiagonal system per step plus a dense
history product.  On uniform grids the step matrix is constant and its
LAPACK ``L D L^T`` factorization (``dpttrf``) is reused; each step then runs
only the ``dpttrs`` substitutions.  The reference history path is the naive
O(J^2 N) sum; correctness of any faster variant is defined against it.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import assembly, fem1d
from .errors import DomainError, SolverError
from .fracops import TemporalGrid, TemporalWeightMatrix, temporal_weights

RESIDUAL_TOL = 1e-12


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
    """Diagnostics of one marched solve."""

    steps: int
    residual_norms: np.ndarray
    wall_time: float
    energy_gap: float


def history_sum(weights: TemporalWeightMatrix, mass: fem1d.TridiagonalMatrix,
                values: np.ndarray, k: int) -> np.ndarray:
    """Mass-weighted fractional history ``M sum_{j<k} G[k, j] values[j]``."""
    return mass.matvec(weights.history_dot(values, k))


def solve(spec: assembly.ProblemSpec, grid: TemporalGrid, mesh: fem1d.Mesh1D,
          loads: np.ndarray | None = None,
          weights: TemporalWeightMatrix | None = None,
          residual_tol: float = RESIDUAL_TOL):
    """March the space-time system; returns the field and a report.

    Each step's linear residual is checked against ``residual_tol`` (relative
    to the step right-hand side); the Galerkin energy identity is accumulated
    on the fly from explicitly computed matrix actions and reported as a
    relative gap.
    """
    if abs(grid.final_time - spec.final_time) > 1e-12 * spec.final_time:
        raise DomainError("grid horizon does not match the problem spec")
    start = time.perf_counter()
    if weights is None:
        weights = temporal_weights(grid, spec.alpha)
    elif not np.array_equal(weights.grid.nodes, grid.nodes):
        raise DomainError("weight matrix was built on a different grid")
    if loads is None:
        loads = assembly.assemble_load(spec, grid, mesh)
    J, N = grid.num_steps, mesh.n_interior
    if loads.shape != (J, N):
        raise DomainError(f"load array shape {loads.shape} != ({J}, {N})")

    mass = fem1d.assemble_mass(mesh)
    stiffness = fem1d.assemble_stiffness(mesh)
    tau = grid.tau

    uniform = grid.is_uniform()
    factor = None
    step_matrix = None
    values = np.zeros((J, N))
    residuals = np.empty(J)
    lhs_energy = 0.0
    rhs_energy = 0.0

    for k in range(J):
        diag_weight = weights.diagonal(k)
        if not diag_weight > 0.0:
            raise SolverError(f"non-positive diagonal weight at step {k}")
        if step_matrix is None or not uniform:
            step_matrix = fem1d.TridiagonalMatrix(
                diag_weight * mass.diag + tau[k] * stiffness.diag,
                diag_weight * mass.off + tau[k] * stiffness.off)
            factor = step_matrix.factor()
            # normwise backward-error scale ||A|| ||u|| + ||rhs||, so the check
            # stays meaningful when the stiffness part dominates on fine meshes
            matrix_norm = float(np.max(np.abs(step_matrix.diag))
                                + 2.0 * np.max(np.abs(step_matrix.off), initial=0.0))
        hist = history_sum(weights, mass, values, k)
        rhs = loads[k] - hist
        u = factor.solve(rhs)
        step_action = step_matrix.matvec(u)
        residual = np.linalg.norm(step_action - rhs)
        scale = max(matrix_norm * np.linalg.norm(u) + np.linalg.norm(rhs), 1e-300)
        residuals[k] = residual / scale
        if residuals[k] > residual_tol:
            raise SolverError(
                f"step {k} residual {residuals[k]:.3e} exceeds {residual_tol:.1e}")
        values[k] = u
        lhs_energy += float(u @ (hist + step_action))
        rhs_energy += float(u @ loads[k])

    gap = abs(lhs_energy - rhs_energy) / max(abs(lhs_energy), abs(rhs_energy), 1e-300)
    report = SolveReport(steps=J, residual_norms=residuals,
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
        hist = float(weights.history_dot(y, k))
        y[k] = (rhs[k] - hist) / (weights.diagonal(k) + tau[k] * lam)
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
        row_action = weights.history_dot(values, k) + weights.diagonal(k) * values[k]
        action = mass.matvec(row_action)
        action += tau[k] * stiffness.matvec(values[k])
        lhs += float(values[k] @ action)
        rhs += float(values[k] @ loads[k])
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def dense_block_solve(grid: TemporalGrid, mesh: fem1d.Mesh1D, alpha: float,
                      loads: np.ndarray) -> np.ndarray:
    """Brute-force oracle: assemble and solve the full block system densely.

    Builds the (JN) x (JN) lower-block-triangular matrix explicitly and calls
    a dense solver; only sensible for small J and N.
    """
    J, N = grid.num_steps, mesh.n_interior
    weights = temporal_weights(grid, alpha)
    mass = fem1d.assemble_mass(mesh).to_dense()
    stiffness = fem1d.assemble_stiffness(mesh).to_dense()
    tau = grid.tau
    big = np.zeros((J * N, J * N))
    for k in range(J):
        for j in range(k + 1):
            block = weights.entry(k, j) * mass
            if j == k:
                block = block + tau[k] * stiffness
            big[k * N:(k + 1) * N, j * N:(j + 1) * N] = block
    flat = np.linalg.solve(big, loads.reshape(J * N))
    return flat.reshape(J, N)
