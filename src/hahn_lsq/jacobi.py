"""The continuous worst-case constant C_n of the Jacobi limit.

The discrete constant D_{n,N} is C_n times a grid factor
(bounds.worst_case_constant).
"""

import math

from .errors import InstabilityError, ParameterError, require_normal

_LN2 = math.log(2.0)


def continuous_constant(n, alpha):
    """Continuous worst-case constant

        C_n = 2^{n+1} Gamma(n+alpha+2) Gamma(n+2 alpha+2)
              / ((n+1)! Gamma(2n+2 alpha+3) Gamma(alpha+1)).

    The large-N limit of the discrete constant for the symmetric weight;
    bounds.worst_case_constant is this times the grid factor.  Raises an
    InstabilityError where C_n falls below the smallest normal double,
    or where the cancelling log terms (large alpha) leave a rounding
    bound, 2^-52 times the sum of their moduli, above 1e-9 relative.
    """
    if alpha < -0.5:
        raise ParameterError(f"constant defined for alpha >= -1/2, got {alpha}")
    if n < 0:
        raise ParameterError(f"degree must be >= 0, got {n}")
    try:
        logs = (
            (n + 1) * _LN2,
            math.lgamma(n + 2.0 * alpha + 2.0),
            math.lgamma(n + alpha + 2.0),
            -math.lgamma(n + 2.0),
            -math.lgamma(2.0 * n + 2.0 * alpha + 3.0),
            -math.lgamma(alpha + 1.0),
        )
    except OverflowError:  # lgamma past the double range, from alpha near 1e306
        logs = (math.inf,)
    # the terms grow like alpha log alpha and cancel to log C_n = O(log n);
    # each brings about an ulp of its own size into C_n's relative error,
    # as the platform lgamma is correct to a few ulp across [1e-3, 1e6]
    error = 2.0**-52 * math.fsum(map(abs, logs))
    if not error <= 1e-9:
        raise InstabilityError(f"C_{n} at alpha={alpha!r}: cancelling log terms, error {error:.1e}")
    t0, t1, t2, t3, t4, t5 = logs  # summed in order: sum() compensates on Python >= 3.12
    return require_normal(math.exp(t0 + t1 + t2 + t3 + t4 + t5), "C_{} at alpha={!r}", n, alpha)
