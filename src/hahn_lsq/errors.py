"""Exception types shared across the package, and the check that a
positive constant has not underflowed below the normal double range.

Each class carries the CLI's exit code and stderr prefix for it:
configuration and domain problems exit 2, degree-threshold violations
3, and numerical instability 4.
"""

import sys

_MIN_NORMAL = sys.float_info.min


class HahnLsqError(Exception):
    """Base class for package-specific errors."""

    exit_code = 2
    prefix = "configuration error"


class ParameterError(HahnLsqError, ValueError):
    """A parameter, degree or grid size lies outside the domain of an
    operation (e.g. alpha <= -1, alpha != beta, n > N)."""


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


def require_normal(value, what, *args):
    """value, unless it lies below the smallest normal double.

    For a positive constant that means the exponent range has run out:
    a subnormal keeps only a few bits and zero keeps none, so an
    InstabilityError is raised rather than a number returned.  The
    message is what.format(*args), built only when raising.
    """
    if value < _MIN_NORMAL:
        raise InstabilityError(
            f"{what.format(*args)} = {value!r} underflows below the smallest "
            f"normal double {_MIN_NORMAL!r}"
        )
    return value
