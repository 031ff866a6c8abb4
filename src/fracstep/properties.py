"""Seeded property suite: operator identities and solver invariants.

Each property draws its own instances from a child of the suite seed, so a
fixed seed reproduces the identical report.  Closed-form identities are held
to 1e-12 relative; comparisons against the quadrature oracle to 1e-9 (the
oracle itself runs at 1e-10).  The oracle route never touches the package's
gamma evaluation, which is what lets the suite detect a corrupted constant.
Two properties call the oracle.  The coercivity pairing integrates only bare
Jacobi weights, which the oracle returns as scipy Beta values with no rule
built.  The closed forms against the oracle need Gauss-Jacobi rules only for
their smooth four-corner pieces.  The two-sided bound computes no rule: its
norm has a closed form in scipy's ``hyp2f1``.  The suite holds the four
march oracles that :func:`solver.solve` is checked against, each with the
naive history sum: the scalar recursion, the energy identity recomputed from
scratch, the naive march, which inverts each step matrix once before it
marches, and the dense block solve.  ``scipy.special`` is scipy's lazy
submodule attribute: it loads at the first oracle call, not at import.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import assembly, fem1d, fracops, harness, solver
from .errors import BUDGET, BudgetError, DomainError
from .fracops import PowerFunction, TemporalGrid, TemporalWeightMatrix, temporal_weights
from .gammafn import gamma_fn
from .quadrature import fixed_order_integral, singular_integral

DEFAULT_SEED = 12345

CLOSED_FORM_TOL = 1e-12
ORACLE_TOL = 1e-9
SOLVER_TOL = 1e-10


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _result(name, err, tol, extra=""):
    note = f"max rel err {err:.3e} (tol {tol:.1e})"
    if extra:
        note += ", " + extra
    return PropertyResult(name, err <= tol, note)


def _random_grid(rng, max_intervals=8) -> TemporalGrid:
    J = int(rng.integers(3, max_intervals + 1))
    steps = rng.uniform(0.2, 1.0, size=J)
    nodes = np.zeros(J + 1)
    np.cumsum(steps, out=nodes[1:])
    return TemporalGrid(nodes / nodes[-1])


# ---------------------------------------------------------------------------
# fractional operator identities
# ---------------------------------------------------------------------------

def prop_semigroup(rng) -> PropertyResult:
    """Nested fractional integrals compose additively on power functions."""
    worst = 0.0
    for _ in range(100):
        sigma = rng.uniform(-0.99, 2.0)
        beta, gamma = rng.uniform(0.05, 0.95, size=2)
        offset = rng.uniform(0.0, 0.5)
        coeff = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        t = offset + rng.uniform(0.1, 2.0)
        p = PowerFunction(coeff, sigma, offset)
        nested = fracops.integral_power_function(
            fracops.integral_power_function(p, gamma), beta)(t)
        single = fracops.integral_power_function(p, beta + gamma)(t)
        worst = max(worst, abs(nested - single) / max(abs(single), 1e-300))
    return _result("semigroup-composition", worst, CLOSED_FORM_TOL, "100 draws")


def _poly_left_side(beta) -> np.ndarray:
    # <I^beta x^n, x^m> on (0,1) for monomials of degree n, m <= 3
    out = np.empty((4, 4))
    for n in range(4):
        lifted = fracops.integral_power_function(PowerFunction(1.0, float(n)), beta)
        for m in range(4):
            out[n, m] = lifted.coefficient / (lifted.exponent + m + 1.0)
    return out


def _poly_right_side(beta) -> np.ndarray:
    # <x^n, I_right^beta x^m> via the binomial expansion of x^m around x = 1;
    # each gamma value once per draw, its argument spelt as in the sum
    factorial = [gamma_fn(i + 1.0) for i in range(4)]
    lifted = [gamma_fn(j + 1.0 + beta) for j in range(4)]
    shifted = [gamma_fn(j + beta + 1.0) for j in range(4)]
    paired = [gamma_fn(s + beta + 2.0) for s in range(7)]  # s = n + j
    out = [[0.0] * 4 for _ in range(4)]
    for m in range(4):
        for j in range(m + 1):
            cj = math.comb(m, j) * (-1.0) ** j
            # right integral of cj (1-s)^j is cj j!/Gamma(j+1+beta) (1-x)^(j+beta)
            coeff = cj * factorial[j] / lifted[j]
            for n in range(4):
                out[n][m] += coeff * (factorial[n] * shifted[j] / paired[n + j])
    return np.array(out)


def prop_duality(rng) -> PropertyResult:
    """Left/right fractional integrals are adjoint on polynomials.

    Both sides are bilinear, so comparing the 4x4 monomial pairings entry by
    entry covers every polynomial of degree <= 3 with no near-zero pairing.
    """
    worst = 0.0
    for _ in range(100):
        beta = rng.uniform(0.05, 0.95)
        lhs = _poly_left_side(beta)
        rhs = _poly_right_side(beta)
        rel = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
        worst = max(worst, float(rel.max()))
    return _result("integral-duality", worst, CLOSED_FORM_TOL, "100 draws")


def _pairing_by_quadrature(grid, values, gamma) -> float:
    """Left/right derivative pairing integrated by the oracle, term by term."""
    nodes = grid.nodes
    norm = scipy.special.gamma(1.0 - gamma) ** 2
    total = 0.0
    J = grid.num_steps
    for j in range(J):
        for k in range(j, J):
            vjk = values[j] * values[k]
            if vjk == 0.0:
                continue
            for a, sign_a in ((nodes[j], 1.0), (nodes[j + 1], -1.0)):
                for b, sign_b in ((nodes[k + 1], 1.0), (nodes[k], -1.0)):
                    if b > a:
                        piece = singular_integral(a, b, p=-gamma, q=-gamma)
                        total += vjk * sign_a * sign_b * piece
    return total / norm


def prop_coercivity(rng) -> PropertyResult:
    """Derivative pairing of nonzero piecewise constants is strictly positive
    and its closed form agrees with the quadrature oracle."""
    min_ratio = math.inf
    worst = 0.0
    for i in range(100):
        gamma = rng.uniform(0.05, 0.45)
        grid = _random_grid(rng, max_intervals=6)
        values = rng.uniform(-2.0, 2.0, size=grid.num_steps)
        if (np.abs(values) < 0.1).all():
            values[0] = 1.0
        pairing = fracops.derivative_pairing_pwc(grid, values, gamma)
        scale = float(np.abs(values).max() ** 2)
        min_ratio = min(min_ratio, pairing / scale)
        if i < 5:
            oracle = _pairing_by_quadrature(grid, values, gamma)
            worst = max(worst, abs(pairing - oracle) / max(abs(oracle), 1e-300))
    ok = min_ratio > 0.0 and worst <= ORACLE_TOL
    detail = (f"min pairing/|v|_inf^2 = {min_ratio:.3e} over 100 draws, "
              f"oracle rel err {worst:.3e} (tol {ORACLE_TOL:.1e})")
    return PropertyResult("coercivity-pairing", ok, detail)


@functools.lru_cache(maxsize=16)
def _pair_indices(size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(size, 1)``, built once per size and read-only."""
    pairs = np.triu_indices(size, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _pwc_integral_norm_sq(grid, values, gamma) -> float:
    """``||I_left^gamma v||^2`` on ``(0, T)`` for a piecewise constant ``v``,
    by the identity in :func:`prop_two_sided_bound`, vectorised over pairs.

    Only scipy's ``gamma`` and ``hyp2f1`` are used, nothing of
    :mod:`fracops`, so the pairing under test and this norm share no code.
    """
    left = grid.nodes[:-1]
    jumps = np.array(values, dtype=float)  # v_j - v_{j-1}, with v_{-1} = 0
    jumps[1:] -= values[:-1]
    jumps /= scipy.special.gamma(1.0 + gamma)
    length = grid.final_time - left
    i, j = _pair_indices(left.size)
    gap = left[j] - left[i]
    cross = (gap ** gamma * length[j] ** (gamma + 1.0) / (gamma + 1.0)
             * scipy.special.hyp2f1(-gamma, gamma + 1.0, gamma + 2.0, -length[j] / gap))
    return float(jumps ** 2 @ (length ** (2.0 * gamma + 1.0) / (2.0 * gamma + 1.0))
                 + 2.0 * (jumps[i] * jumps[j]) @ cross)


def prop_two_sided_bound(rng) -> PropertyResult:
    """The left/right integral pairing is positive and comparable to the
    squared norm of the left integral, with measured two-sided constants.

    The norm is exact: with the jumps ``c_j = (v_j - v_{j-1}) / Gamma(1 +
    gamma)`` at the left nodes ``t_j`` (``v_{-1} = 0``), ``I^gamma v(t) =
    sum_j c_j (t - t_j)_+^gamma``, so with ``L_j = T - t_j`` and ``d = t_j -
    t_i``::

        ||I^gamma v||^2 = sum_j c_j^2 L_j^(2 gamma + 1) / (2 gamma + 1)
            + 2 sum_{i<j} c_i c_j d^gamma L_j^(gamma + 1) / (gamma + 1)
                          * 2F1(-gamma, gamma + 1; gamma + 2; -L_j / d)

    The cross term is ``int_0^L_j s^gamma (s + d)^gamma ds``.
    """
    ratios = []
    for _ in range(100):
        gamma = rng.uniform(0.05, 0.45)
        grid = _random_grid(rng, max_intervals=5)
        values = rng.uniform(-2.0, 2.0, size=grid.num_steps)
        if (np.abs(values) < 0.1).all():
            values[-1] = 1.0
        pairing = fracops.fractional_integral_pairing_pwc(grid, values, gamma)
        norm_sq = _pwc_integral_norm_sq(grid, values, gamma)
        ratios.append(pairing / norm_sq)
    lo, hi = min(ratios), max(ratios)
    ok = lo > 0.0 and math.isfinite(hi)
    return PropertyResult(
        "integral-pairing-two-sided", ok,
        f"measured ratio in [{lo:.4f}, {hi:.4f}] over 100 draws")


def prop_toeplitz(rng) -> PropertyResult:
    """Uniform-grid weights are shift invariant and the four-corner formula
    reduces to the Toeplitz kernel's values on a uniform grid."""
    worst = 0.0
    for alpha in (0.2, 0.5, 0.8):
        grid = TemporalGrid.uniform(12, 1.0)
        weights = fracops.temporal_weights(grid, alpha)
        dense = weights.dense()
        general = np.tril(fracops._four_corner(grid, alpha))
        worst = max(worst, float(np.max(np.abs(dense - general)))
                    / float(np.max(np.abs(dense))))
        # entries (k, j), 0 < j < k, against (k - 1, j - 1)
        lower = np.tril_indices(11, -1)
        later = dense[1:, 1:][lower]
        shift = np.abs(later - dense[:-1, :-1][lower]) / np.abs(later)
        worst = max(worst, float(np.max(shift)))
    return _result("toeplitz-uniform-weights", worst, CLOSED_FORM_TOL)


def _numeric_derivative(func, t) -> float:
    h = 0.005 * t
    return (func(t - 2 * h) - 8 * func(t - h) + 8 * func(t + h)
            - func(t + 2 * h)) / (12 * h)


def prop_closed_forms_vs_oracle(rng) -> PropertyResult:
    """Integral, derivative and weight closed forms match the oracle."""
    worst = 0.0
    for i in range(50):
        gamma = rng.uniform(0.05, 0.95)
        sigma = rng.uniform(-0.99, 2.0)
        t = rng.uniform(0.3, 2.0)
        p = PowerFunction(1.0, sigma)
        closed = fracops.integral_power_function(p, gamma)(t)
        oracle = singular_integral(0.0, t, p=sigma, q=gamma - 1.0) / scipy.special.gamma(gamma)
        worst = max(worst, abs(closed - oracle) / max(abs(oracle), 1e-300))

        # derivative route: quadrature of the lifted integral, then numeric
        # differentiation; sampled inside the sigma - gamma > -0.8 band where
        # the differencing noise stays below the tolerance
        dgamma = rng.uniform(0.05, 0.95)
        dsigma = rng.uniform(dgamma - 0.8, 2.0)
        dt = rng.uniform(0.5, 2.0)

        # the integrand is the bare Jacobi weight, whose integral the oracle
        # returns as a scipy Beta value, with no noise to difference
        def lifted(s, dsigma=dsigma, dgamma=dgamma):
            return (fixed_order_integral(0.0, s, p=dsigma, q=-dgamma)
                    / scipy.special.gamma(1.0 - dgamma))

        dclosed = fracops.derivative_power_function(PowerFunction(1.0, dsigma), dgamma)(dt)
        doracle = _numeric_derivative(lifted, dt)
        worst = max(worst, abs(dclosed - doracle) / max(abs(doracle), 1e-300))

        if i < 10:
            alpha = rng.uniform(0.1, 0.9)
            grid = _random_grid(rng, max_intervals=5)
            nodes = grid.nodes
            k = int(rng.integers(0, grid.num_steps))
            j = int(rng.integers(0, k + 1))
            pieces = 0.0
            for a, sign in ((nodes[j], 1.0), (nodes[j + 1], -1.0)):
                lo = max(a, nodes[k])
                if nodes[k + 1] > a:
                    if lo == a:
                        piece = singular_integral(a, nodes[k + 1], p=-alpha)
                    else:
                        piece = singular_integral(lo, nodes[k + 1],
                                                  smooth=lambda s, a=a: (s - a) ** -alpha)
                    pieces += sign * piece
            oracle_entry = pieces / scipy.special.gamma(1.0 - alpha)
            entry = fracops._four_corner(grid, alpha)[k, j]
            err = abs(entry - oracle_entry)
            worst = max(worst, err / max(abs(oracle_entry), 1e-300))
    return _result("closed-forms-vs-oracle", worst, ORACLE_TOL, "50 draws")


# ---------------------------------------------------------------------------
# finite element invariants
# ---------------------------------------------------------------------------

def prop_partition_of_unity(rng) -> PropertyResult:
    worst = 0.0
    for n_cells in (4, 8, 32):
        mesh = fem1d.Mesh1D(n_cells)
        mass = fem1d.assemble_mass(mesh)
        sums = mass.matvec(np.ones(mesh.n_interior))
        h = mesh.h
        expected = np.full(mesh.n_interior, h)
        expected[0] = expected[-1] = 5.0 * h / 6.0  # boundary hats are dropped
        worst = max(worst, float(np.max(np.abs(sums - expected))) / h)
    return _result("mass-row-sums", worst, CLOSED_FORM_TOL)


def prop_prolong_restrict(rng) -> PropertyResult:
    coarse = fem1d.Mesh1D(8)
    coeffs = rng.uniform(-1.0, 1.0, size=coarse.n_interior)
    for factor in (2, 4, 3):
        fine = fem1d.Mesh1D(coarse.n_cells * factor)
        back = fem1d.prolong_rows(coeffs, coarse, fine)[0, factor - 1::factor]
        if not np.array_equal(back, coeffs):
            return PropertyResult("prolong-restrict-identity", False,
                                  f"mismatch at factor {factor}")
    return PropertyResult("prolong-restrict-identity", True,
                          "bit-identical for factors 2, 4, 3")


def prop_pencil_eigenpairs(rng) -> PropertyResult:
    mesh = fem1d.Mesh1D(8)
    dense_k = fem1d.assemble_stiffness(mesh).to_dense()
    dense_m = fem1d.assemble_mass(mesh).to_dense()
    eigvals = scipy.linalg.eigh(dense_k, dense_m, eigvals_only=True)
    worst = 0.0
    for mode in range(1, mesh.n_interior + 1):
        closed = fem1d.pencil_eigenvalue(mesh, mode)
        worst = max(worst, abs(closed - eigvals[mode - 1]) / eigvals[mode - 1])
        rayleigh = assembly.spectral_eigenvalue(mesh, mode)
        worst = max(worst, abs(rayleigh - closed) / closed)
    return _result("pencil-eigenvalues", worst, SOLVER_TOL)


def prop_power_load(rng) -> PropertyResult:
    worst = 0.0
    all_positive = True
    for _ in range(25):
        r = rng.uniform(-0.99, 2.0)
        n_cells = int(rng.choice([4, 8, 16]))
        mesh = fem1d.Mesh1D(n_cells)
        load = fem1d.power_load_vector(mesh, r)
        all_positive &= bool(np.all(load > 0.0))
        h = mesh.h
        # interior sum telescopes to the full moment minus both boundary hats
        left_hat = h ** (r + 1.0) / ((r + 1.0) * (r + 2.0))
        b = lambda x: x ** (r + 2.0) / (r + 2.0)
        a = lambda x: x ** (r + 1.0) / (r + 1.0)
        right_hat = (b(1.0) - b(1.0 - h)) / h - (1.0 - h) * (a(1.0) - a(1.0 - h)) / h
        expected = 1.0 / (r + 1.0) - left_hat - right_hat
        worst = max(worst, abs(float(np.sum(load)) - expected) / abs(expected))
    ok = all_positive and worst <= CLOSED_FORM_TOL
    return PropertyResult(
        "power-load-telescoping", ok,
        f"all entries positive: {all_positive}, sum rel err {worst:.3e}")


# ---------------------------------------------------------------------------
# assembly invariants
# ---------------------------------------------------------------------------

def prop_separability(rng) -> PropertyResult:
    """Assembled loads equal their entrywise scalar-product recomputation."""
    grid = TemporalGrid.uniform(int(rng.integers(3, 7)))
    mesh = fem1d.Mesh1D(8)
    spec = _experiment1(0.4)
    loads = assembly.assemble_load(spec, grid, mesh)
    ifac = assembly.initial_time_factors(grid, spec.alpha)
    sfac = assembly.power_time_factors(grid, -0.49)
    space = fem1d.power_load_vector(mesh, -0.8)
    worst = 0.0
    for k in range(grid.num_steps):
        for i in range(mesh.n_interior):
            entry = ifac[k] * space[i] + sfac[k] * space[i]
            worst = max(worst, abs(loads[k, i] - entry) / abs(entry))
    return _result("load-separability", worst, CLOSED_FORM_TOL)


def prop_time_factor_decay(rng) -> PropertyResult:
    ok = True
    for alpha in (0.2, 0.8):
        for sigma in (0.29, 0.49):
            grid = TemporalGrid.uniform(32, 1.0)
            ifac = assembly.initial_time_factors(grid, alpha)
            sfac = assembly.power_time_factors(grid, -sigma)
            ok &= bool(np.all(ifac > 0.0) and np.all(np.diff(ifac) < 0.0))
            ok &= bool(np.all(sfac > 0.0) and np.all(np.diff(sfac) < 0.0))
    return PropertyResult("time-factors-positive-decreasing", ok,
                          "uniform grids, both experiment exponents")


def _source_value(spec, x, t) -> float:
    total = 0.0
    for term in spec.sources:  # sine sources only, as the manufactured problem's
        spatial = math.sin(int(term.spatial_param) * math.pi * x)
        total += term.scale * spatial * t ** term.temporal_exponent
    return total


def prop_manufactured_residual(rng) -> PropertyResult:
    """The manufactured source satisfies the PDE of its exact solution."""
    worst = 0.0
    for alpha in (0.3, 0.5, 0.8):
        spec = harness.manufactured_problem(alpha)
        tpow = fracops.derivative_power_function(PowerFunction(1.0, 2.0), alpha)
        for _ in range(20):
            x = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.05, 1.0)
            frac_dt = math.sin(math.pi * x) * float(tpow(t))
            minus_lap = math.pi ** 2 * t ** 2 * math.sin(math.pi * x)
            residual = frac_dt + minus_lap - _source_value(spec, x, t)
            worst = max(worst, abs(residual) / max(abs(minus_lap), 1e-300))
    return _result("manufactured-residual", worst, SOLVER_TOL)


# ---------------------------------------------------------------------------
# solver invariants
# ---------------------------------------------------------------------------

def prop_causality(rng) -> PropertyResult:
    grid = TemporalGrid.uniform(12, 1.0)
    mesh = fem1d.Mesh1D(8)
    spec = assembly.ProblemSpec(alpha=0.5)
    loads = rng.uniform(-1.0, 1.0, size=(12, mesh.n_interior))
    first, _ = solver.solve(spec, grid, mesh, loads=loads)
    bumped = loads.copy()
    bumped[8:] += rng.uniform(0.5, 1.0, size=(4, mesh.n_interior))
    second, _ = solver.solve(spec, grid, mesh, loads=bumped)
    same = np.array_equal(first.values[:8], second.values[:8])
    return PropertyResult("causality", same,
                          "prefix bit-identical under future load changes")


def prop_block_equivalence(rng) -> PropertyResult:
    worst = 0.0
    mesh = fem1d.Mesh1D(8)  # seven interior unknowns
    grid = TemporalGrid.uniform(16, 1.0)
    for alpha in (0.3, 0.5, 0.8):
        spec = _experiment1(alpha)
        loads = assembly.assemble_load(spec, grid, mesh)
        marched, _ = solver.solve(spec, grid, mesh, loads=loads)
        dense = dense_block_solve(grid, mesh, alpha, loads)
        scale = float(np.max(np.abs(dense)))
        worst = max(worst, float(np.max(np.abs(marched.values - dense))) / scale)
    return _result("block-system-equivalence", worst, SOLVER_TOL)


def _naive_march(grid, mesh, alpha, loads) -> np.ndarray:
    """Oracle: march with the full history sum and dense step solves.

    Each step matrix ``G_kk M + tau_k K`` is inverted once, all of them in
    one batched call, and step ``k`` applies its inverse to the right side.
    """
    weights = fracops.temporal_weights(grid, alpha).dense()
    mass = fem1d.assemble_mass(mesh).to_dense()
    stiffness = fem1d.assemble_stiffness(mesh).to_dense()
    inverses = np.linalg.inv(np.diagonal(weights)[:, None, None] * mass
                             + grid.tau[:, None, None] * stiffness)
    values = np.zeros_like(loads)
    for k in range(grid.num_steps):
        rhs = loads[k] - mass @ (weights[k, :k] @ values[:k])
        values[k] = inverses[k] @ rhs
    return values


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


def energy_identity_gap(field: solver.SpaceTimeField, weights: TemporalWeightMatrix,
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


def prop_fast_history(rng) -> PropertyResult:
    """The solver's batched history products agree with the naive march.

    Two uniform grids of ``solver.HISTORY_BLOCK + 1`` to 160 steps, one with
    alpha in (0, 0.05] and one with alpha in [0.95, 1).  At that length every
    merge is a dense block product (n <= 160 < ``fracops.DENSE_MERGE``); the
    FFT merges are checked against independent paths by the tests
    ``test_equals_scalar_times_sine_across_fft_merges`` and
    ``test_history_block_on_both_sides_of_dense_merge``.
    """
    worst = 0.0
    mesh = fem1d.Mesh1D(4)
    for alpha in (0.05 - rng.uniform(0.0, 0.05), rng.uniform(0.95, 1.0)):
        grid = TemporalGrid.uniform(int(rng.integers(solver.HISTORY_BLOCK + 1, 161)))
        loads = rng.uniform(-1.0, 1.0, size=(grid.num_steps, mesh.n_interior))
        marched, _ = solver.solve(assembly.ProblemSpec(alpha=alpha),
                                  grid, mesh, loads=loads)
        naive = _naive_march(grid, mesh, alpha, loads)
        scale = float(np.max(np.abs(naive)))
        worst = max(worst, float(np.max(np.abs(marched.values - naive))) / scale)
    return _result("fast-history-vs-naive-march", worst, SOLVER_TOL, "2 draws")


def _experiment1(alpha: float) -> assembly.ProblemSpec:
    """Experiment 1 with the rough initial value ``x^-0.8``."""
    return harness.experiment_problem("experiment1", alpha, r=-0.8)


def prop_spectral_decoupling(rng) -> PropertyResult:
    mesh = fem1d.Mesh1D(16)
    grid = TemporalGrid.uniform(32, 1.0)
    alpha, mode = 0.6, 1
    spec = assembly.spectral_test_problem(mode, alpha)
    field, _ = solver.solve(spec, grid, mesh)
    lam = assembly.spectral_eigenvalue(mesh, mode)
    scalars = scalar_solve(alpha, lam, grid, y0=1.0)
    predicted = np.outer(scalars, fem1d.sine_vector(mesh, mode))
    scale = float(np.max(np.abs(predicted)))
    err = float(np.max(np.abs(field.values - predicted))) / scale
    return _result("spectral-decoupling", err, SOLVER_TOL)


def prop_zero_data(rng) -> PropertyResult:
    grid = TemporalGrid.uniform(16, 1.0)
    mesh = fem1d.Mesh1D(8)
    spec = assembly.ProblemSpec(alpha=0.5)
    field, _ = solver.solve(spec, grid, mesh)
    exact_zero = bool(np.all(field.values == 0.0))
    return PropertyResult("zero-data-uniqueness", exact_zero,
                          "zero loads produce exactly zero fields")


def prop_energy_identity(rng) -> PropertyResult:
    worst = 0.0
    mesh = fem1d.Mesh1D(16)
    grid = TemporalGrid.uniform(32, 1.0)
    for alpha in (0.3, 0.8):
        spec = _experiment1(alpha)
        loads = assembly.assemble_load(spec, grid, mesh)
        field, report = solver.solve(spec, grid, mesh, loads=loads)
        weights = fracops.temporal_weights(grid, alpha)
        gap = energy_identity_gap(field, weights, loads)
        worst = max(worst, gap, report.energy_gap)
    return _result("galerkin-energy-identity", worst, SOLVER_TOL)


def prop_scalar_first_step(rng) -> PropertyResult:
    """First step of the scalar recursion with unit source and no reaction."""
    worst = 0.0
    for alpha in (0.3, 0.5, 0.8):
        for num_steps in (4, 8):
            grid = TemporalGrid.uniform(num_steps, 1.0)
            tau = 1.0 / num_steps
            y = scalar_solve(alpha, 0.0, grid, y0=0.0,
                                    g_factors=grid.tau.copy())
            expected = gamma_fn(2.0 - alpha) * tau ** alpha
            worst = max(worst, abs(y[0] - expected) / expected)
    return _result("scalar-first-step", worst, CLOSED_FORM_TOL)


_SUITE = (
    prop_semigroup,
    prop_duality,
    prop_coercivity,
    prop_two_sided_bound,
    prop_toeplitz,
    prop_closed_forms_vs_oracle,
    prop_partition_of_unity,
    prop_prolong_restrict,
    prop_pencil_eigenpairs,
    prop_power_load,
    prop_separability,
    prop_time_factor_decay,
    prop_manufactured_residual,
    prop_causality,
    prop_block_equivalence,
    prop_spectral_decoupling,
    prop_zero_data,
    prop_energy_identity,
    prop_scalar_first_step,
    prop_fast_history,
)


def run_property_suite(seed: int = DEFAULT_SEED) -> list[PropertyResult]:
    """Run every property with independent seeded generators."""
    streams = np.random.SeedSequence(seed).spawn(len(_SUITE))
    results = []
    for prop, stream in zip(_SUITE, streams):
        rng = np.random.default_rng(stream)
        try:
            results.append(prop(rng))
        except Exception as exc:  # a crashed property is a failed property
            results.append(PropertyResult(prop.__name__, False,
                                          f"raised {type(exc).__name__}: {exc}"))
    return results
