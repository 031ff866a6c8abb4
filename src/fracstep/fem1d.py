"""Uniform 1D P1 finite elements on (0, 1) with homogeneous Dirichlet ends.

Interior-node unknowns only: for ``n`` cells the unknown vector has
``n - 1`` entries at ``x_i = i h``.  Mass and stiffness matrices are
symmetric tridiagonal, stored by their two bands, factored by
:meth:`TridiagonalMatrix.factor` (``dpttrf``) and solved by
:meth:`ThomasFactor.solve` (``dpttrs``); load vectors for power-law and sine
data are assembled from closed-form antiderivatives, never from pointwise
sampling (the experiments' data blow up at ``x = 0``).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, NestingError, SolverError


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh of ``n_cells`` cells on (0, 1); nonuniform meshes are rejected."""

    n_cells: int

    def __post_init__(self):
        if not isinstance(self.n_cells, (int, np.integer)) or self.n_cells < 2:
            raise DomainError(f"need an integer n_cells >= 2, got {self.n_cells!r}")

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def n_interior(self) -> int:
        return self.n_cells - 1

    @property
    def interior_nodes(self) -> np.ndarray:
        return np.arange(1, self.n_cells) * self.h


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix stored as its (diag, off) bands.

    ``matvec`` acts along the last axis, on every row of an array at once.
    """

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        if np.shape(self.off)[-1] != np.shape(self.diag)[-1] - 1:
            raise DomainError("band lengths must be n, n-1")

    @property
    def size(self) -> int:
        return len(self.diag)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[..., :-1] += self.off * x[..., 1:]
        y[..., 1:] += self.off * x[..., :-1]
        return y

    def quadform(self, x: np.ndarray) -> float:
        return float(x @ self.matvec(np.array(x, dtype=float)))

    def quadform_rows(self, rows: np.ndarray) -> np.ndarray:
        """x^T A x for each row x of a (m, n) array; no caller in the package,
        kept only for the tests and the benchmark's tracer until ROADMAP item 1a."""
        out = np.einsum("ij,ij->i", rows, rows * self.diag)
        out += 2.0 * np.einsum("ij,ij->i", rows[:, :-1], rows[:, 1:] * self.off)
        return out

    def factor(self) -> "ThomasFactor":
        # the wrapper rejects an empty off-diagonal, so n = 1 gets a dummy one
        off = self.off if self.size > 1 else np.zeros(1)
        d, e, info = lapack.dpttrf(self.diag, off)
        if info != 0:
            raise SolverError("tridiagonal matrix is not positive definite")
        return ThomasFactor(d, e)

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.off, -1) + np.diag(self.off, 1)


@dataclass(frozen=True)
class ThomasFactor:
    """LAPACK ``L D L^T`` factors of a positive definite tridiagonal matrix.

    :meth:`TridiagonalMatrix.factor` makes them with ``dpttrf``, once per
    step matrix, and ``dpttrs`` runs once per right-hand side.  ``d`` holds
    D and ``e`` the subdiagonal of the unit bidiagonal L.
    The name is kept because ``benchmarks/tracing.py`` traces its ``solve``.
    """

    d: np.ndarray
    e: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # dpttrs would return a longer rhs with its tail untouched
        if np.shape(rhs) != self.d.shape:
            raise DomainError(f"right-hand side shape {np.shape(rhs)} != {self.d.shape}")
        x, _ = lapack.dpttrs(self.d, self.e, rhs)
        return x


def assemble_mass(mesh: Mesh1D) -> TridiagonalMatrix:
    """Mass matrix ``h/6 tridiag(1, 4, 1)`` on interior nodes."""
    n = mesh.n_interior
    h = mesh.h
    return TridiagonalMatrix(np.full(n, 2.0 * h / 3.0), np.full(n - 1, h / 6.0))


def assemble_stiffness(mesh: Mesh1D) -> TridiagonalMatrix:
    """Stiffness matrix ``1/h tridiag(-1, 2, -1)`` on interior nodes."""
    n = mesh.n_interior
    h = mesh.h
    return TridiagonalMatrix(np.full(n, 2.0 / h), np.full(n - 1, -1.0 / h))


def power_load_vector(mesh: Mesh1D, r: float) -> np.ndarray:
    """Hat-function moments ``int_0^1 x^r phi_i dx`` in closed form.

    Uses the second antiderivative of ``x^r``: the moment against a hat is
    the scaled second difference ``(F(x_{i-1}) - 2 F(x_i) + F(x_{i+1}))/h``
    with ``F(x) = x^(r+2)/((r+1)(r+2))``.  Finite for every ``r > -1`` even
    though the integrand is singular at the left boundary hat.
    """
    r = float(r)
    if not r > -1.0:
        raise DomainError(f"power exponent must exceed -1, got {r}")
    nodes = np.arange(mesh.n_cells + 1) * mesh.h
    second_antideriv = nodes ** (r + 2.0) / ((r + 1.0) * (r + 2.0))
    return (second_antideriv[:-2] - 2.0 * second_antideriv[1:-1]
            + second_antideriv[2:]) / mesh.h


def sine_load_vector(mesh: Mesh1D, mode: int) -> np.ndarray:
    """Moments ``int_0^1 sin(m pi x) phi_i dx`` in closed form.

    The moment is ``4 sin^2(k h / 2) / (h k^2)`` times the nodal sine, with
    ``k = m pi``; the half-angle form avoids the cancellation in
    ``1 - cos(k h)``.
    """
    values = sine_vector(mesh, mode)
    k = mode * math.pi
    h = mesh.h
    factor = 4.0 * math.sin(0.5 * k * h) ** 2 / (h * k * k)
    return factor * values


def sine_vector(mesh: Mesh1D, mode: int) -> np.ndarray:
    """Nodal values ``sin(m pi x_i)`` at the interior nodes."""
    if mode < 1:
        raise DomainError(f"sine mode must be >= 1, got {mode}")
    return np.sin(mode * math.pi * mesh.interior_nodes)


def pencil_eigenvalue(mesh: Mesh1D, mode: int) -> float:
    """Exact eigenvalue of the (stiffness, mass) pencil for the sine mode."""
    if not 1 <= mode <= mesh.n_interior:
        raise DomainError(f"mode must lie in 1..{mesh.n_interior}, got {mode}")
    h = mesh.h
    c = math.cos(mode * math.pi * h)
    return 6.0 / (h * h) * (1.0 - c) / (2.0 + c)


def band_sums(padded: np.ndarray, diffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sums ``s0 = sum d_i^2`` and ``g = sum (d_{i+1} - d_i)^2``.

    ``padded`` holds rows ``d`` of nodal values with their zero boundary
    values on both ends (last axis ``n + 1`` long for ``n`` cells);
    ``diffs``, one shorter on the last axis, receives the first differences.
    The P1 mass and stiffness forms of such a row are ``h s0 - h g / 6`` and
    ``g / h``.  Both sums are of squares, so neither cancels, unlike
    ``2 sum d_i^2 - 2 sum d_i d_{i+1}`` for a smooth ``d``.
    """
    np.subtract(padded[..., 1:], padded[..., :-1], out=diffs)
    return (np.einsum("...k,...k->...", padded, padded),
            np.einsum("...k,...k->...", diffs, diffs))


def prolong_rows(values: np.ndarray, coarse: Mesh1D, fine: Mesh1D) -> np.ndarray:
    """Prolong each row of a (m, N_coarse) array to the nested fine mesh.

    Fine node ``m i_c + s`` takes ``(1 - s/m) u[i_c] + (s/m) u[i_c + 1]``
    with zero boundary values; exact for P1 functions on nested meshes.
    """
    if fine.n_cells % coarse.n_cells != 0:
        raise NestingError(
            f"{fine.n_cells} cells do not refine {coarse.n_cells} cells")
    m = fine.n_cells // coarse.n_cells
    fine_idx = np.arange(1, fine.n_cells)
    left = fine_idx // m
    weight = (fine_idx - m * left) / m
    values = np.atleast_2d(np.asarray(values, dtype=float))
    padded = np.zeros((values.shape[0], coarse.n_cells + 1))
    padded[:, 1:-1] = values
    return (1.0 - weight) * padded[:, left] + weight * padded[:, left + 1]
