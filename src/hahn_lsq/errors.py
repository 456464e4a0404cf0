"""Exception types shared across the package.

Each class carries the CLI's exit code and stderr prefix for it:
configuration and domain problems exit 2, degree-threshold violations
3, and numerical instability 4.
"""


class HahnLsqError(Exception):
    """Base class for package-specific errors."""

    exit_code = 2
    prefix = "configuration error"


class DomainError(HahnLsqError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(HahnLsqError, ValueError):
    """Structural precondition violated (e.g. alpha <= -1, alpha != beta)."""


class DegreeError(HahnLsqError, ValueError):
    """Requested degree is incompatible with the grid size."""


class LengthMismatchError(HahnLsqError, ValueError):
    """Sample arrays do not match the grid length N+1."""


class ThresholdError(HahnLsqError, ValueError):
    """Degree exceeds the admissible threshold n(alpha, N).

    Outside that hypothesis the sharp-constant machinery makes no claim,
    so callers get an error rather than an unasserted number.
    """

    exit_code = 3
    prefix = "threshold violation"


class MissingDerivativeBoundError(HahnLsqError, LookupError):
    """A derivative sup bound was required but the function spec has none."""


class InstabilityError(HahnLsqError, RuntimeError):
    """A numerical path produced unusable output (ill-conditioning, overflow)."""

    exit_code = 4
    prefix = "numerical instability"


class NumericalRangeWarning(UserWarning):
    """Parameters left the range where double precision is validated."""
