"""Scalar special-function primitives.

Log-gamma on its domain, and the check that a positive constant has not
underflowed below the normal double range, both on plain Python scalars.
"""

import math
import sys

from .errors import DomainError, InstabilityError

_MIN_NORMAL = sys.float_info.min


def log_gamma(x):
    """ln Gamma(x) for x > 0.

    The platform lgamma is correct to a few ulp across [1e-3, 1e6],
    well inside the 1e-13 relative target the bound constants need.
    """
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


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
