"""Worst-case constants and admissibility thresholds for the discrete
least-squares operator.

Houses D_{n,N}, the degree threshold n(alpha, N), the simplified
large-n constant, the alpha = 0 sandwich, minimum node counts, and the
discrete/continuous ratio.  Everything is computed in log space; the
grid factor is always the product of (1 - i/N) terms, never a factorial
ratio, so grid sizes up to 10^6 are safe.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DegreeError, DomainError, ParameterError, ThresholdError
from .jacobi import continuous_constant
from .specfun import RationalScalar, log_gamma, require_normal, stirling_sandwich_logs

_LN2 = math.log(2.0)


def degree_threshold(alpha, N):
    """n(alpha, N) = 1/2 - alpha + (1/2) sqrt((2 alpha+1)(2 alpha+2N+1)).

    Degrees with n+1 <= n(alpha, N) admit the sharp error constant.
    """
    if alpha <= -0.5:
        raise ParameterError(f"threshold defined for alpha > -1/2, got {alpha}")
    if N < 1:
        raise ParameterError(f"grid size must be >= 1, got {N}")
    return 0.5 - alpha + 0.5 * math.sqrt((2.0 * alpha + 1.0) * (2.0 * alpha + 2.0 * N + 1.0))


def hypothesis_holds(n, N, alpha):
    """True iff n+1 <= n(alpha, N).

    Exact real comparison with no epsilon slack; boundary equality counts.
    """
    return n + 1 <= degree_threshold(alpha, N)


def ratio_discrete_continuous(n, N):
    """Grid factor N!/(N^{n+1} (N-n-1)!) as the stable product

        prod_{i=0}^{n} (1 - i/N),

    which equals the quotient of the discrete and continuous constants.
    """
    if n < 0:
        raise DegreeError(f"degree must be >= 0, got {n}")
    if n + 1 > N:
        raise DegreeError(f"grid factor needs n+1 <= N, got n={n}, N={N}")
    r = 1.0
    for i in range(1, n + 1):
        r *= 1.0 - i / N
    return r


def worst_case_constant(n, N, alpha):
    """Sharp constant D_{n,N} = C_n(alpha) * prod_{i=0}^{n}(1 - i/N): the
    continuous constant times the grid factor.  Returned only under the
    degree hypothesis n+1 <= n(alpha, N); outside it the constant is not
    asserted sharp and a ThresholdError is raised.  A D below the smallest
    normal double raises an InstabilityError.
    """
    if alpha <= -0.5:
        raise ParameterError(f"constant defined for alpha > -1/2, got {alpha}")
    if n < 0 or n + 1 > N:
        raise DegreeError(f"need 0 <= n and n+1 <= N, got n={n}, N={N}")
    threshold = degree_threshold(alpha, N)
    if n + 1 > threshold:
        raise ThresholdError(
            f"degree hypothesis violated: n+1={n + 1} > n(alpha,N)={threshold:.6g} "
            f"for alpha={alpha}, N={N}"
        )
    value = continuous_constant(n, alpha) * ratio_discrete_continuous(n, N)
    return require_normal(value, "D_{},{} at alpha={!r}", n, N, alpha)


def simplified_constant(n, alpha):
    """Leading-order simplification of the worst-case constant,

        sqrt(pi n)/(2^{n+1} (n+1)!) * n^alpha/(Gamma(alpha+1) 4^alpha).

    Asymptotic in n; the quotient against worst_case_constant at node
    counts growing faster than n^2 tends to 1 like 1 + O(1/n).  A value
    below the smallest normal double raises an InstabilityError.
    """
    if n < 1:
        raise DomainError(f"simplified constant needs n >= 1, got {n}")
    if alpha <= -0.5:
        raise ParameterError(f"constant defined for alpha > -1/2, got {alpha}")
    value = math.exp(
        0.5 * math.log(math.pi * n)
        - (n + 1) * _LN2
        - math.lgamma(n + 2.0)
        + alpha * math.log(n)
        - log_gamma(alpha + 1.0)
        - 2.0 * alpha * _LN2
    )
    return require_normal(value, "simplified constant at n={}, alpha={!r}", n, alpha)


def _alpha0_logs(n):
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    m = n + 1
    _, log_exact, log_upper = stirling_sandwich_logs(m)
    log_slack = 2.0 / (12 * m + 1) + 1.0 / (24 * m + 1) - 1.0 / (6 * m) - 1.0 / (24 * m)
    return log_upper, log_slack, log_exact


def alpha0_constant(n):
    """The alpha = 0 sandwich pair (D_n, d_n):

        D_n = sqrt(pi(n+1))/(2^{n+1}(n+1)!) e^{1/(6(n+1)) - 1/(24(n+1)+1)}
        d_n = e^{2/(12(n+1)+1) + 1/(24(n+1)+1) - 1/(6(n+1)) - 1/(24(n+1))}

    The exact constant 2^{n+1}(n+1)!/(2n+2)! lies in [D_n d_n, D_n].
    """
    log_upper, log_slack, _ = _alpha0_logs(n)
    return math.exp(log_upper), math.exp(log_slack)


def alpha0_exact_constant(n):
    """Exact alpha = 0 constant 2^{n+1}(n+1)!/(2n+2)!."""
    return math.exp(_alpha0_logs(n)[2])


def alpha0_sandwich_logs(n):
    """(log lower, log exact, log upper) of the alpha = 0 sandwich

        D_n d_n <= 2^{n+1}(n+1)!/(2n+2)! <= D_n,

    kept in log space so the comparison survives degrees in the hundreds
    where the plain values underflow.
    """
    log_upper, log_slack, log_exact = _alpha0_logs(n)
    return log_upper + log_slack, log_exact, log_upper


def min_nodes(n, alpha):
    """Smallest node counts that guarantee the degree hypothesis for n:

        c3 = ceil((2n^2 + (4 alpha + 2) n)/(2 alpha + 1))   (alpha > -1/2)
        c4 = 2 n (n + 1)                                    (alpha >= 0)

    c3 uses exact rational arithmetic on the binary value of alpha, so
    float division cannot tip the ceiling across an integer boundary.
    c4 is returned for any admissible alpha but its guarantee is only
    asserted for alpha >= 0.
    """
    if alpha <= -0.5:
        raise ParameterError(f"node thresholds defined for alpha > -1/2, got {alpha}")
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    fa = RationalScalar(alpha)
    c3 = math.ceil((2 * n * n + (4 * fa + 2) * n) / (2 * fa + 1))
    c4 = 2 * n * (n + 1)
    return max(int(c3), 1), max(c4, 1)


@dataclass(frozen=True)
class BoundReport:
    """All bound data for one (n, N, alpha) cell.

    D is present only under the degree hypothesis; simplified only for
    n >= 1.  ratio is the grid factor, equal to D/C when D exists.
    """

    n: int
    N: int
    alpha: float
    threshold: float
    hypothesis_ok: bool
    D: Optional[float]
    C: float
    ratio: float
    simplified: Optional[float]
    node_min_c3: int
    node_min_c4: int


def bound_report(n, N, alpha):
    threshold = degree_threshold(alpha, N)
    ok = n + 1 <= threshold
    c3, c4 = min_nodes(n, alpha)
    return BoundReport(
        n=n,
        N=N,
        alpha=alpha,
        threshold=threshold,
        hypothesis_ok=ok,
        D=worst_case_constant(n, N, alpha) if ok else None,
        C=continuous_constant(n, alpha),
        ratio=ratio_discrete_continuous(n, N),
        simplified=simplified_constant(n, alpha) if n >= 1 else None,
        node_min_c3=c3,
        node_min_c4=c4,
    )
