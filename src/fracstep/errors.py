"""Exception types shared across the package, the resource budget and the buffer size."""

BUDGET = 1 << 24  # max J*N unknowns of a solve, steps of a grid, entries of a dense array
CHUNK = 1 << 16  # values of a working buffer formed at once (error rows, FFT merges)


class FracstepError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FracstepError, ValueError):
    """A mathematical precondition was violated (bad order, exponent, grid...)."""


class NestingError(DomainError):
    """Two meshes/grids that must be nested are not."""


class QuadratureError(FracstepError):
    """The quadrature oracle did not converge within its node budget."""


class SolverError(FracstepError):
    """A solve or its errors came out unacceptable: a residual, or a non-finite value."""


class BudgetError(FracstepError):
    """A solve, a grid or a dense array would exceed ``BUDGET``."""
