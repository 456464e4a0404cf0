"""Jacobi polynomials P_n^{a,b} on [-1,1].

Evaluation, L2 norms against the weight (1-x)^a (1+x)^b, the endpoint
sup bound, and the continuous worst-case constant C_n that the discrete
constants factor through.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InstabilityError, ParameterError
from .specfun import gen_binomial, log_gamma, pochhammer, require_normal

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class JacobiParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1 and self.beta > -1):
            raise ParameterError(
                f"Jacobi parameters require alpha, beta > -1, got alpha={self.alpha}, beta={self.beta}"
            )


def jacobi_eval(n, x, params):
    """P_n^{a,b}(x) by the terminating sum

        ((a+1)_n / n!) sum_k (-n)_k (n+a+b+1)_k / (a+1)_k * ((1-x)/2)^k / k!.

    Vectorized over x with Kahan-compensated accumulation.  At x = 1 all
    k >= 1 terms vanish, so P_n(1) = (a+1)_n/n! exactly.
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    a, b = params.alpha, params.beta
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    t = (1.0 - np.atleast_1d(arr)) / 2.0
    term = np.ones_like(t)
    total = np.zeros_like(t)
    comp = np.zeros_like(t)
    for k in range(n + 1):
        if k > 0:
            term = term * t * ((k - 1.0 - n) * (n + a + b + k)) / ((a + k) * k)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    front = pochhammer(a + 1.0, n) / math.factorial(n)
    result = front * total
    return float(result[0]) if scalar else result.reshape(arr.shape)


def jacobi_norm_sq(n, params):
    """L2 norm squared

        2^{a+b+1} Gamma(n+a+1) Gamma(n+b+1) / ((2n+a+b+1) n! Gamma(n+a+b+1)).

    The n = 0 case regroups the denominator as Gamma(a+b+2) so arguments
    stay positive for a+b in (-2, -1].
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    a, b = params.alpha, params.beta
    log_num = (a + b + 1.0) * _LN2 + log_gamma(n + a + 1.0) + log_gamma(n + b + 1.0)
    if n == 0:
        return math.exp(log_num - log_gamma(a + b + 2.0))
    return math.exp(
        log_num - math.log(2.0 * n + a + b + 1.0) - math.lgamma(n + 1.0) - log_gamma(n + a + b + 1.0)
    )


def jacobi_sup(n, params):
    """sup over [-1,1] of |P_n^{a,b}| = C(n + max(a,b), n).

    Valid for max(a, b) >= -1/2; the maximum sits at an endpoint.
    """
    q = max(params.alpha, params.beta)
    if q < -0.5:
        raise ParameterError(f"sup bound needs max(alpha, beta) >= -1/2, got {q}")
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    return gen_binomial(q, n)


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
        raise DomainError(f"degree must be >= 0, got {n}")
    try:
        logs = (
            (n + 1) * _LN2,
            log_gamma(n + 2.0 * alpha + 2.0),
            log_gamma(n + alpha + 2.0),
            -math.lgamma(n + 2.0),
            -log_gamma(2.0 * n + 2.0 * alpha + 3.0),
            -log_gamma(alpha + 1.0),
        )
    except OverflowError:  # lgamma past the double range, from alpha near 1e306
        logs = (math.inf,)
    # the terms grow like alpha log alpha and cancel to log C_n = O(log n);
    # each brings about an ulp of its own size into C_n's relative error
    error = 2.0**-52 * math.fsum(map(abs, logs))
    if not error <= 1e-9:
        raise InstabilityError(f"C_{n} at alpha={alpha!r}: cancelling log terms, error {error:.1e}")
    t0, t1, t2, t3, t4, t5 = logs  # summed in order: sum() compensates on Python >= 3.12
    return require_normal(math.exp(t0 + t1 + t2 + t3 + t4 + t5), "C_{} at alpha={!r}", n, alpha)
