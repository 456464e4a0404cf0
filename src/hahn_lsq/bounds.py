"""Worst-case constants and admissibility thresholds for the discrete
least-squares operator.

Houses D_{n,N}, the degree threshold n(alpha, N), the simplified
large-n constant, minimum node counts, and the discrete/continuous
ratio.  Everything is computed in log space; the grid factor is always
the product of (1 - i/N) terms, never a factorial ratio, so grid sizes
up to 10^6 are safe.
"""

import math
import operator
from dataclasses import dataclass
from typing import Optional

from .errors import InstabilityError, ParameterError, ThresholdError, require_normal
from .jacobi import continuous_constant

_LN2 = math.log(2.0)


def degree_threshold(alpha, N):
    """n(alpha, N) = 1/2 - alpha + (1/2) sqrt((2 alpha+1)(2 alpha+2N+1)),
    as 1 + N/(sqrt(1 + 2N/(2 alpha+1)) + 1), which does not cancel at
    large alpha.  Degrees with n+1 <= n(alpha, N) (decided exactly by
    _c3_terms) admit the sharp error constant."""
    if alpha <= -0.5:
        raise ParameterError(f"threshold defined for alpha > -1/2, got {alpha}")
    if N < 1:
        raise ParameterError(f"grid size must be >= 1, got {N}")
    return 1.0 + N / (math.sqrt(1.0 + 2.0 * N / (2.0 * alpha + 1.0)) + 1.0)


def _c3_terms(n, alpha):
    """Integers num = n (2nq + 4p + 2q) and den = 2p + q, alpha = p/q
    exactly, such that n+1 <= n(alpha, N) exactly when N den >= num, so
    no rounding tips the degree hypothesis; c3 is ceil(num/den)."""
    p, q = alpha.as_integer_ratio()
    return n * (2 * n * q + 4 * p + 2 * q), 2 * p + q


def ratio_discrete_continuous(n, N):
    """Grid factor N!/(N^{n+1} (N-n-1)!) as the stable product

        prod_{i=0}^{n} (1 - i/N),

    which equals the quotient of the discrete and continuous constants.
    """
    if n < 0:
        raise ParameterError(f"degree must be >= 0, got {n}")
    if n + 1 > N:
        raise ParameterError(f"grid factor needs n+1 <= N, got n={n}, N={N}")
    r = 1.0
    for i in range(1, n + 1):
        r *= 1.0 - i / N
    return r


def constants_row(n, N, alpha):
    """(threshold, D, C, ratio) of one table cell: n(alpha, N), the sharp
    constant D_{n,N}, the continuous constant C_n(alpha) and the grid
    factor.  ratio is None when n+1 > N, and D is None unless the degree
    hypothesis n+1 <= n(alpha, N), exact by _c3_terms, holds; only a
    value outside the domain or below the normal range raises.
    """
    threshold = degree_threshold(alpha, N)
    C = continuous_constant(n, alpha)
    ratio = ratio_discrete_continuous(n, N) if n + 1 <= N else None
    num, den = _c3_terms(n, alpha)
    if operator.index(N) * den < num:
        return threshold, None, C, ratio
    return threshold, require_normal(C * ratio, "D_{},{} at alpha={!r}", n, N, alpha), C, ratio


def worst_case_constant(n, N, alpha):
    """Sharp constant D_{n,N} = C_n(alpha) * prod_{i=0}^{n}(1 - i/N), as
    constants_row gives it.  A grid below c3 fails the degree hypothesis,
    where the constant is not asserted sharp: a ThresholdError is raised
    before C_n is computed.  A D below the smallest normal double raises
    an InstabilityError."""
    c3 = min_nodes(n, alpha)[0]
    if 1 <= N < c3:
        raise ThresholdError(f"degree hypothesis violated: n+1={n + 1} at alpha={alpha}, N={N} < c3={c3}")
    return constants_row(n, N, alpha)[1]


def simplified_constant(n, alpha):
    """Leading-order simplification of the worst-case constant,

        sqrt(pi n)/(2^{n+1} (n+1)!) * n^alpha/(Gamma(alpha+1) 4^alpha).

    Asymptotic in n; the quotient against worst_case_constant at node
    counts growing faster than n^2 tends to 1 like 1 + O(1/n).  A value
    below the smallest normal double raises an InstabilityError.
    """
    if n < 1:
        raise ParameterError(f"simplified constant needs n >= 1, got {n}")
    if alpha <= -0.5:
        raise ParameterError(f"constant defined for alpha > -1/2, got {alpha}")
    value = math.exp(
        0.5 * math.log(math.pi * n)
        - (n + 1) * _LN2
        - math.lgamma(n + 2.0)
        + alpha * math.log(n)
        - math.lgamma(alpha + 1.0)
        - 2.0 * alpha * _LN2
    )
    return require_normal(value, "simplified constant at n={}, alpha={!r}", n, alpha)


def min_nodes(n, alpha):
    """Smallest node counts that guarantee the degree hypothesis for n:

        c3 = ceil((2n^2 + (4 alpha + 2) n)/(2 alpha + 1))   (alpha > -1/2)
        c4 = 2 n (n + 1)                                    (alpha >= 0)

    c3 is _c3_terms' ceiling in integers, so N >= c3 is the degree
    hypothesis itself.  c4 is returned for any admissible alpha but its
    guarantee is only asserted for alpha >= 0.
    """
    if alpha <= -0.5:
        raise ParameterError(f"node thresholds defined for alpha > -1/2, got {alpha}")
    if n < 0:
        raise ParameterError(f"degree must be >= 0, got {n}")
    num, den = _c3_terms(n, alpha)
    c3 = -(-num // den)
    c4 = 2 * n * (n + 1)
    return max(c3, 1), max(c4, 1)


@dataclass(frozen=True)
class BoundReport:
    """All bound data for one (n, N, alpha) cell.

    D is present only under the degree hypothesis; simplified only for
    n >= 1 and where it does not underflow.  ratio is the grid factor,
    present only for n+1 <= N, and D = C * ratio exactly when D exists.
    """

    n: int
    N: int
    alpha: float
    threshold: float
    hypothesis_ok: bool
    D: Optional[float]
    C: float
    ratio: Optional[float]
    simplified: Optional[float]
    node_min_c3: int
    node_min_c4: int


def bound_report(n, N, alpha):
    """The BoundReport of one cell.  A C or D below the normal range
    raises an InstabilityError; a simplified constant that alone
    underflows (n^alpha / 4^alpha at alpha in the thousands) is left
    empty, as it is at n = 0."""
    threshold, D, C, ratio = constants_row(n, N, alpha)
    c3, c4 = min_nodes(n, alpha)
    simplified = None
    if n >= 1:
        try:
            simplified = simplified_constant(n, alpha)
        except InstabilityError:
            pass
    return BoundReport(
        n=n,
        N=N,
        alpha=alpha,
        threshold=threshold,
        hypothesis_ok=D is not None,
        D=D,
        C=C,
        ratio=ratio,
        simplified=simplified,
        node_min_c3=c3,
        node_min_c4=c4,
    )
