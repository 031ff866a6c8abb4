"""Space-time Galerkin solver for time-fractional diffusion with nonsmooth data.

Piecewise constants in time, continuous piecewise linears in space, on
``(0, 1) x (0, T)`` with homogeneous Dirichlet conditions.  The package
bundles closed-form fractional calculus on power functions and piecewise
constants, the causal marching solver, a convergence-study harness, and an
executable property suite for the operator identities.
"""

from .assembly import (
    InitialData,
    ManufacturedSolution,
    ProblemSpec,
    SourceTerm,
    assemble_load,
    manufactured_problem,
    spectral_test_problem,
)
from .errors import (
    BudgetError,
    DomainError,
    FracstepError,
    NestingError,
    QuadratureError,
    SolverError,
)
from .fem1d import (
    Mesh1D,
    TridiagonalMatrix,
    assemble_mass,
    assemble_stiffness,
    power_load_vector,
    sine_load_vector,
)
from .fracops import (
    PowerFunction,
    TemporalGrid,
    TemporalWeightMatrix,
    derivative_power_function,
    fractional_seminorm_pwc,
    integral_power_function,
    temporal_weights,
)
from .gammafn import gamma_fn
from .harness import (
    ConvergenceTable,
    SweepPlan,
    default_plan,
    expected_orders,
    order_fit,
    run_sweep,
    space_time_error,
)
from .properties import run_property_suite
from .quadrature import singular_integral
from .solver import (
    SolveReport,
    SpaceTimeField,
    energy_identity_gap,
    scalar_solve,
    solve,
)

__version__ = "0.1.0"
