"""Scalar special-function primitives.

Log-gamma, rising factorials, generalized binomial coefficients, the
Stirling-type sandwich for 2^n n!/(2n)!, and the Gamma-ratio residual
used by the asymptotic checks.  Everything here works on plain Python
scalars; the array-heavy code lives in the polynomial modules.
"""

import math
import sys

from .errors import DomainError, InstabilityError

_LN2 = math.log(2.0)
_MIN_NORMAL = sys.float_info.min


def log_gamma(x):
    """ln Gamma(x) for x > 0.

    The platform lgamma is correct to a few ulp across [1e-3, 1e6],
    well inside the 1e-13 relative target the bound constants need.
    """
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def pochhammer(a, k):
    """Rising factorial (a)_k = a(a+1)...(a+k-1) with (a)_0 = 1.

    Direct product, not a Gamma ratio, so zero and negative factors stay
    exact; works unchanged for Fraction arguments.
    """
    if k < 0:
        raise DomainError(f"pochhammer requires k >= 0, got {k!r}")
    result = a**0  # one in the arithmetic of a (int, float, Fraction)
    for i in range(k):
        result = result * (a + i)
    return result


def gen_binomial(a, k):
    """Generalized binomial C(a+k, k) = Gamma(a+k+1)/(Gamma(k+1) Gamma(a+1)).

    Always through log-gamma so grid sizes in the thousands cannot
    overflow intermediate factorials.  Requires a > -1.
    """
    if a <= -1:
        raise DomainError(f"gen_binomial requires a > -1, got {a!r}")
    if k < 0:
        raise DomainError(f"gen_binomial requires k >= 0, got {k!r}")
    if k == 0:
        return 1.0
    return math.exp(math.lgamma(a + k + 1.0) - math.lgamma(k + 1.0) - math.lgamma(a + 1.0))


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


def stirling_sandwich_logs(n):
    """Logs of the two-sided enclosure of v_n = 2^n n!/(2n)!.

    Returns (log lower, log value, log upper) with

        lower = sqrt(pi n)/(2^n n!) * exp(2/(12n+1) - 1/(24n))
        upper = sqrt(pi n)/(2^n n!) * exp(1/(6n)    - 1/(24n+1))

    The log form keeps the three quantities comparable after v_n drops
    below the smallest positive double (n around 150).
    """
    if n < 1:
        raise DomainError(f"stirling_sandwich requires n >= 1, got {n!r}")
    log_fact = math.lgamma(n + 1.0)
    log_value = n * _LN2 + log_fact - math.lgamma(2.0 * n + 1.0)
    log_front = 0.5 * math.log(math.pi * n) - n * _LN2 - log_fact
    log_lower = log_front + 2.0 / (12 * n + 1) - 1.0 / (24 * n)
    log_upper = log_front + 1.0 / (6 * n) - 1.0 / (24 * n + 1)
    return log_lower, log_value, log_upper


def stirling_sandwich(n):
    """Two-sided enclosure (lower, value, upper) of v_n = 2^n n!/(2n)!.

    Assembled in log space so intermediate factorials never overflow;
    the returned values themselves underflow to zero past n ~ 150, where
    stirling_sandwich_logs stays informative.
    """
    lower, value, upper = stirling_sandwich_logs(n)
    return math.exp(lower), math.exp(value), math.exp(upper)


def gamma_ratio_residual(a, b, N):
    """N^(b-a) Gamma(N+a)/Gamma(N+b) - 1 - (a-b)(a+b-1)/(2N).

    What remains after removing the leading correction is O(N^-2);
    callers confirm this by checking residual * N^2 stays bounded.
    """
    if a <= 0 or b <= 0:
        raise DomainError(f"gamma_ratio_residual requires a, b > 0, got a={a!r}, b={b!r}")
    if N < 1:
        raise DomainError(f"gamma_ratio_residual requires N >= 1, got {N!r}")
    ratio = math.exp((b - a) * math.log(N) + math.lgamma(N + float(a)) - math.lgamma(N + float(b)))
    return ratio - 1.0 - (a - b) * (a + b - 1.0) / (2.0 * N)
