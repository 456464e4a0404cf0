"""Hahn polynomials Q_n(x; alpha, beta, N) on the integer grid {0..N}.

Weight values, hypergeometric and recurrence evaluation, closed-form
norms, weighted inner products, and the normalized symmetric family
on [-1,1].  Float paths use compensated summation; the _exact variants
are rational twins for the small-parameter oracle tests.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeError,
    DomainError,
    InstabilityError,
    LengthMismatchError,
    NumericalRangeWarning,
    ParameterError,
    ThresholdError,
)
from .specfun import RationalScalar, gen_binomial, log_pochhammer, pochhammer

# Double precision with compensated summation is validated on this range;
# beyond it the alternating hypergeometric sums start to cancel badly,
# so we warn instead of silently degrading.
MAX_VALIDATED_DEGREE = 40
MAX_VALIDATED_NODES = 10**4


@dataclass(frozen=True)
class HahnParams:
    """Parameter triple (alpha, beta, N) of a Hahn family."""

    alpha: float
    beta: float
    N: int

    def __post_init__(self):
        if not (self.alpha > -1 and self.beta > -1):
            raise ParameterError(
                f"Hahn parameters require alpha, beta > -1, got alpha={self.alpha}, beta={self.beta}"
            )
        if self.N < 1 or self.N != int(self.N):
            raise ParameterError(f"grid size N must be a positive integer, got {self.N!r}")

    @property
    def symmetric(self):
        return self.alpha == self.beta


def _check_degree(n, N, what="degree"):
    if n < 0 or n > N:
        raise DegreeError(f"{what} must satisfy 0 <= n <= N={N}, got {n}")


def _check_range(n, N):
    if n > MAX_VALIDATED_DEGREE or N > MAX_VALIDATED_NODES:
        warnings.warn(
            f"double precision validated for n <= {MAX_VALIDATED_DEGREE}, "
            f"N <= {MAX_VALIDATED_NODES}; got n={n}, N={N}",
            NumericalRangeWarning,
            stacklevel=3,
        )


def weight(i, params):
    """Weight omega(i) = C(alpha+i, i) * C(beta+N-i, N-i), strictly positive."""
    N = params.N
    if i < 0 or i > N:
        raise IndexError(f"grid index must lie in [0, {N}], got {i}")
    return gen_binomial(params.alpha, i) * gen_binomial(params.beta, N - i)


def weight_exact(i, alpha, beta, N):
    """Integer-exact weight; oracle path for integer alpha, beta >= 0."""
    _require_integer_exponents(alpha, beta)
    if i < 0 or i > N:
        raise IndexError(f"grid index must lie in [0, {N}], got {i}")
    return math.comb(int(alpha) + i, i) * math.comb(int(beta) + N - i, N - i)


def _require_integer_exponents(alpha, beta):
    if alpha < 0 or beta < 0 or alpha != int(alpha) or beta != int(beta):
        raise DomainError(
            f"exact arithmetic needs integer alpha, beta >= 0, got alpha={alpha!r}, beta={beta!r}"
        )


@dataclass(frozen=True)
class DiscreteWeight:
    """The weight vector omega(0..N) attached to its parameters."""

    params: HahnParams
    values: np.ndarray

    @classmethod
    def from_params(cls, params):
        # omega(i) = left[i] * right[N - i]: one binomial per node and side,
        # and one side only when the weight is symmetric
        N = params.N
        left = [gen_binomial(params.alpha, i) for i in range(N + 1)]
        right = left if params.symmetric else [gen_binomial(params.beta, i) for i in range(N + 1)]
        vals = np.array(left) * np.array(right[::-1])
        vals.flags.writeable = False
        return cls(params, vals)


def _hahn_series(n, x, a, b, N):
    """Exact sum_k (-n)_k (n+a+b+1)_k (-x)_k / ((a+1)_k (-N)_k k!) for
    rational (or integer) x, a, b."""
    term = RationalScalar(1)
    total = RationalScalar(1)
    for k in range(n):
        term = term * ((k - n) * (n + a + b + 1 + k) * (k - x))
        term = term / ((a + 1 + k) * (k - N) * (k + 1))
        total += term
    return total


def hahn_eval(n, x, params):
    """Q_n(x) as the terminating hypergeometric sum

        sum_k (-n)_k (n+alpha+beta+1)_k (-x)_k / ((alpha+1)_k (-N)_k k!).

    x may be any real; off the integer grid this is the same polynomial.
    The alternating terms reach ~1e16 times the result for moderate n
    and N, far beyond what compensated float summation can absorb, so
    the terms are accumulated exactly in rational arithmetic (every
    double is a dyadic rational) and rounded once at the end.  Q_n(0)=1
    comes out exact.
    """
    _check_degree(n, params.N)
    _check_range(n, params.N)
    a = RationalScalar(params.alpha)
    b = RationalScalar(params.beta)
    return float(_hahn_series(n, RationalScalar(float(x)), a, b, params.N))


def hahn_eval_exact(n, x, alpha, beta, N):
    """Exact-rational Q_n(x) for integer alpha, beta >= 0 (oracle path)."""
    _require_integer_exponents(alpha, beta)
    _check_degree(n, N)
    return _hahn_series(n, RationalScalar(x), int(alpha), int(beta), N)


@functools.lru_cache(maxsize=128, typed=True)
def _recurrence_coefficients(n_max, a, b, N):
    """Forward coefficients (A_k, C_k), k = 1..n_max-1, of

        A_k Q_{k+1}(x) = (A_k + C_k - x) Q_k(x) - C_k Q_{k-1}(x).

    Cached, because the golden-section polish evaluates one family at
    a few dozen single points in a row.
    """
    coefficients = []
    for k in range(1, n_max):
        s = a + b + 2.0 * k
        A = (k + a + b + 1.0) * (k + a + 1.0) * (N - k) / ((s + 1.0) * (s + 2.0))
        C = k * (k + a + b + N + 1.0) * (k + b) / (s * (s + 1.0))
        coefficients.append((A, C))
    return tuple(coefficients)


def hahn_table(n_max, xs, params):
    """Q_0..Q_{n_max} at the points xs, shape (n_max+1, len(xs)).

    Ascending three-term recurrence in the degree; A_k and C_k are the
    standard forward coefficients.  The k=0 step is written out because
    C_0 carries a removable 0/0 at alpha + beta = 0.
    """
    _check_degree(n_max, params.N)
    _check_range(n_max, params.N)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    a, b, N = params.alpha, params.beta, float(params.N)
    out = np.empty((n_max + 1, xs.size))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 1.0 - xs * (a + b + 2.0) / ((a + 1.0) * N)
    for k, (A, C) in enumerate(_recurrence_coefficients(n_max, a, b, N), start=1):
        out[k + 1] = ((A + C - xs) * out[k] - C * out[k - 1]) / A
    return out


def _hahn_column(n_max, x, params):
    """Q_0..Q_{n_max} at one float x, as a list.

    The recurrence of hahn_table in plain floats, with the same
    operations in the same order, so each value is bit-identical to the
    matching hahn_table entry without the per-call cost of numpy on a
    one-point table.  No degree or range checks: callers have done them.
    """
    a, b, N = params.alpha, params.beta, float(params.N)
    out = [1.0]
    if n_max >= 1:
        out.append(1.0 - x * (a + b + 2.0) / ((a + 1.0) * N))
    for A, C in _recurrence_coefficients(n_max, a, b, N):
        out.append(((A + C - x) * out[-1] - C * out[-2]) / A)
    return out


def hahn_eval_recurrence(n, x, params):
    """Q_n(x) by the recurrence; independent cross-check of hahn_eval."""
    return float(hahn_table(n, x, params)[n, 0])


def hahn_norm_sq(k, params):
    """Closed-form squared norm

        (-1)^k (k+a+b+1)_{N+1} (b+1)_k k! / ((2k+a+b+1) (a+1)_k (-N)_k N!)

    assembled in log space with sign bookkeeping; the alternating signs
    cancel, so the result is positive.
    """
    _check_degree(k, params.N, "norm index")
    a, b, N = params.alpha, params.beta, params.N
    log1, s1 = log_pochhammer(k + a + b + 1.0, N + 1)
    log2, s2 = log_pochhammer(b + 1.0, k)
    log3 = math.lgamma(k + 1.0)
    d4 = 2.0 * k + a + b + 1.0
    log5, s5 = log_pochhammer(a + 1.0, k)
    log6, s6 = log_pochhammer(float(-N), k)
    log7 = math.lgamma(N + 1.0)
    sign = (-1) ** k * s1 * s2 * s5 * s6 * (1 if d4 > 0 else -1)
    try:
        return sign * math.exp(log1 + log2 + log3 - math.log(abs(d4)) - log5 - log6 - log7)
    except OverflowError as exc:
        raise InstabilityError(f"norm of Q_{k} overflows for alpha={a}, beta={b}, N={N}") from exc


def hahn_norm_sq_exact(k, alpha, beta, N):
    """Exact-rational norm for integer alpha, beta >= 0 (oracle path)."""
    _require_integer_exponents(alpha, beta)
    _check_degree(k, N, "norm index")
    a, b = int(alpha), int(beta)
    num = (
        RationalScalar((-1) ** k)
        * pochhammer(RationalScalar(k + a + b + 1), N + 1)
        * pochhammer(RationalScalar(b + 1), k)
        * math.factorial(k)
    )
    den = (
        RationalScalar(2 * k + a + b + 1)
        * pochhammer(RationalScalar(a + 1), k)
        * pochhammer(RationalScalar(-N), k)
        * math.factorial(N)
    )
    return num / den


def inner_product(f_values, g_values, weight):
    """Discrete inner product sum_i f(i) g(i) omega(i), via fsum."""
    w = weight.values
    f = np.asarray(f_values, dtype=float)
    g = np.asarray(g_values, dtype=float)
    if f.shape != w.shape or g.shape != w.shape:
        raise LengthMismatchError(
            f"sample arrays must have length N+1={w.size}, got {f.size} and {g.size}"
        )
    return math.fsum((f * g * w).tolist())


def normalized_hahn_eval(k, t, params):
    """Normalized symmetric polynomial on [-1,1] (alpha = beta only):

        hatQ_k(t) = (-1)^k Q_k(N(1+t)/2) / sqrt(<Q_k,Q_k>).
    """
    if not params.symmetric:
        raise ParameterError(
            f"normalized family needs alpha = beta, got {params.alpha} != {params.beta}"
        )
    _check_degree(k, params.N)
    x = params.N * (1.0 + t) / 2.0
    return (-1) ** k * hahn_eval(k, x, params) / math.sqrt(hahn_norm_sq(k, params))


def endpoint_max_check(n, alpha, N, refine=64):
    """True iff Q_n(.; alpha, alpha, N) attains its maximum modulus at the
    grid endpoints, with Q_n(0) = 1 and Q_n(N) = (-1)^n, all within 1e-10.

    Sampling is the integer grid refined `refine` times.  Only asserted
    for degrees n <= n(alpha, N); beyond that a ThresholdError is raised
    because the endpoint property is not claimed there.
    """
    from .bounds import degree_threshold

    params = HahnParams(alpha, alpha, N)
    threshold = degree_threshold(alpha, N)
    if n > threshold:
        raise ThresholdError(
            f"endpoint maximum asserted only for n <= n(alpha,N)={threshold:.6g}, got n={n}"
        )
    _check_degree(n, N)
    xs = np.linspace(0.0, N, refine * N + 1)
    vals = hahn_table(n, xs, params)[n]
    tol = 1e-10
    if abs(vals[0] - 1.0) > tol:
        return False
    if abs(vals[-1] - (-1.0) ** n) > tol:
        return False
    endpoint = max(abs(vals[0]), abs(vals[-1]))
    return bool(np.max(np.abs(vals)) <= endpoint + tol)
