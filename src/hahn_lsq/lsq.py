"""Discrete least-squares fitting on the equidistant grid x_mu = (2mu - N)/N.

The Hahn-expansion fit, dense sup-error measurement, the sharpness
witness, and the class-K membership defect.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import bounds, hahn
from .errors import InstabilityError, MissingDerivativeBoundError, ParameterError

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class FunctionSpec:
    """A named target function on [-1,1].

    derivative_sup(k), when provided, must upper-bound sup |f^{(k)}|;
    bound and class-membership claims are skipped without it.  parity,
    when provided, promises f(-t) = parity * f(t): 1 for an even f, -1
    for an odd one.
    """

    name: str
    evaluator: Callable
    derivative_sup: Optional[Callable] = None
    parity: Optional[int] = None

    def __post_init__(self):
        if self.parity not in (None, 1, -1):
            raise ParameterError(f"parity must be 1, -1 or None, got {self.parity!r}")

    @functools.cached_property
    def _candidate_values(self):
        """f on _candidates(), read-only, sampled once per spec; an even or
        odd f is sampled on t >= 0 only and mirrored."""
        if self.parity is None:
            values = _sample(self, _candidates())
        else:
            half = _sample(self, _half_candidates())
            values = np.concatenate((self.parity * half[:0:-1], half))
        values.flags.writeable = False
        return values


@dataclass(frozen=True)
class Approximant:
    """Degree-n expansion sum_k c_k Q_k(N(1+t)/2) in the Hahn basis.

    chebyshev_values, set by fit_hahn only, holds the expansion at the
    n+1 first-kind Chebyshev points t_j = cos(pi (j + 1/2)/(n+1)),
    read-only and with the bits of evaluate there.  An approximant built
    by hand or by dataclasses.replace has None, and sup_error evaluates
    it instead.
    """

    params: hahn.HahnParams
    degree: int
    coefficients: tuple
    chebyshev_values: Optional[np.ndarray] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        hahn._check_degree(self.degree, self.params.N, "approximant degree")
        if len(self.coefficients) != self.degree + 1:
            raise ParameterError(
                f"expected {self.degree + 1} coefficients, got {len(self.coefficients)}"
            )
        if not all(math.isfinite(c) for c in self.coefficients):
            raise InstabilityError("non-finite fit coefficients")


@dataclass(frozen=True)
class ErrorReport:
    sup_error: float
    argmax: float
    bound: Optional[float] = None
    ratio: Optional[float] = None


def grid_points(N):
    """Sampling nodes x_mu = (2 mu - N)/N; both endpoints are exact."""
    mu = np.arange(N + 1, dtype=float)
    return (2.0 * mu - N) / N


def _sample(f, t):
    """f at t, a float or a float array, as a float array of t's shape."""
    return np.asarray(f.evaluator(t), dtype=float)


def _weighted_samples(f, n, params):
    """Samples of f on the grid and the scaled weight for a degree-n fit.

    A sample that is not finite leaves no fit to compute, so it raises an
    InstabilityError here rather than a numpy warning in the projection.
    """
    N = params.N
    hahn._check_degree(n, N, "fit degree")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fs = _sample(f, grid_points(N))
    if not np.all(np.isfinite(fs)):
        raise InstabilityError(f"non-finite samples of {f.name} on the grid of N={N}")
    return fs, hahn.DiscreteWeight.from_params(params).scaled()


def fit_hahn(f, n, params):
    """Least-squares coefficients c_k = <f, Q_k>_omega / <Q_k, Q_k>_omega
    for k = 0..n, from samples on the equidistant grid.

    The coefficients do not change when omega is rescaled, so the weight
    w is the scaled one and the norms are its sum times the recurrence
    ratios.  The recurrence runs against the data (Forsythe 1957): each
    row Q_k on the grid is contracted as it appears and then dropped.  A
    symmetric family has Q_k(N - x) = (-1)^k Q_k(x), so its rows run on
    x = 0..N//2 only, against the even or the odd fold of the data.
    The same walk also covers the n+1 Chebyshev points x = N(1+t_j)/2
    that sup_error needs, and keeps their rows as a table, so the fit
    carries its values there, with the bits of evaluate.  Finite samples
    can still sum past the double range, and a norm ratio can underflow
    to zero; numpy stays quiet about both because Approximant rejects
    the non-finite coefficient.
    """
    fs, w = _weighted_samples(f, n, params)
    N = params.N
    hahn._check_range(n, N)
    dots = np.empty(n + 1)
    table = np.empty((n + 1, n + 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fw = fs * w
        if params.symmetric:
            last = N // 2
            head, tail = fw[: last + 1], fw[::-1][: last + 1]
            folds = (head + tail, head - tail)
            if N % 2 == 0:
                # the middle node is its own mirror: once in the even fold,
                # and head - tail already cancels it from the odd one
                folds[0][last] = fw[last]
        else:
            last, folds = N, (fw, fw)
        xs = N * (1.0 + _chebyshev_nodes(n)) / 2.0
        points = np.concatenate((np.arange(last + 1, dtype=float), xs))
        for k, row in enumerate(hahn._hahn_rows(n, points, params)):
            dots[k] = row[: last + 1] @ folds[k % 2]
            table[k] = row[last + 1 :]
        coefficients = dots / (w.sum() * hahn._norm_ratios(n, params))
    approximant = Approximant(params, n, tuple(coefficients.tolist()))
    values = coefficients @ table
    values.flags.writeable = False
    object.__setattr__(approximant, "chebyshev_values", values)
    return approximant


def evaluate(a, t):
    """Evaluate sum_k c_k Q_k(N(1+t)/2) at t (scalar or array); a scalar
    t is a one-point table and gives a float."""
    arr = np.asarray(t, dtype=float)
    xs = a.params.N * (1.0 + arr.ravel()) / 2.0
    values = np.asarray(a.coefficients) @ hahn.hahn_table(a.degree, xs, a.params)
    return float(values[0]) if arr.ndim == 0 else values.reshape(arr.shape)


@functools.lru_cache(maxsize=None)
def _half_candidates():
    """The candidates with t >= 0: 5001 equispaced points union the
    Chebyshev extrema cos(k pi/4096), k < 2048, ascending from an exact 0
    (the equispaced one, in place of cos(pi/2) = 6e-17) to 1."""
    half = np.union1d(np.linspace(0.0, 1.0, 5001), np.cos(np.arange(2048) * (math.pi / 4096.0)))
    half.flags.writeable = False
    return half


@functools.lru_cache(maxsize=None)
def _candidates():
    """The 14095 sup_error candidates on [-1,1]: _half_candidates() and its
    mirror image, ascending, so tie-breaks are reproducible."""
    half = _half_candidates()
    out = np.concatenate((-half[:0:-1], half))
    out.flags.writeable = False
    return out


def _chebyshev_angles(n):
    """theta_j = pi (j + 1/2)/(n+1), j = 0..n."""
    return (np.arange(n + 1) + 0.5) * (math.pi / (n + 1))


@functools.lru_cache(maxsize=64)
def _chebyshev_nodes(n):
    """First-kind Chebyshev points t_j = cos(theta_j), j = 0..n, read-only."""
    nodes = np.cos(_chebyshev_angles(n))
    nodes.flags.writeable = False
    return nodes


@functools.lru_cache(maxsize=64)
def _chebyshev_matrix(n):
    """The (n+1)^2 cosine matrix that takes the values of a degree-n
    polynomial at _chebyshev_nodes(n) to its Chebyshev coefficients."""
    matrix = np.cos(np.outer(np.arange(n + 1), _chebyshev_angles(n))) * (2.0 / (n + 1))
    matrix[0] *= 0.5
    return matrix


def _chebyshev_coefficients(a):
    """The approximant's Chebyshev coefficients, from its values at the
    n+1 Chebyshev points: those fit_hahn carried, or evaluate's."""
    values = a.chebyshev_values
    if values is None:
        values = evaluate(a, _chebyshev_nodes(a.degree))
    else:
        # the range check evaluate would have made
        hahn._check_range(a.degree, a.params.N)
    return _chebyshev_matrix(a.degree) @ values


# T_0, T_1, ... on _half_candidates(), in blocks of _CHEBYSHEV_BLOCK rows shared
# by every fit.  The 8 most recently used are kept (degrees below 128); _scan
# takes them in order, so a block it lacks is built from the one just used.
_CHEBYSHEV_BLOCK = 16


@functools.lru_cache(maxsize=8)
def _chebyshev_block(index):
    """T_k on _half_candidates() for the _CHEBYSHEV_BLOCK degrees k from
    index * _CHEBYSHEV_BLOCK, read-only, run on from the last two rows of
    the block before it."""
    t = _half_candidates()
    block = np.empty((_CHEBYSHEV_BLOCK, t.size))
    if index:
        older, old = _chebyshev_block(index - 1)[-2:]
        start = 0
    else:
        block[0], block[1] = 1.0, t
        older, old = block[:2]
        start = 2
    for row in block[start:]:
        # T_{k+1} = 2 t T_k - T_{k-1}
        np.multiply(old, t, out=row)
        row *= 2.0
        row -= older
        older, old = old, row
    block.flags.writeable = False
    return block


def _scan(coefficients):
    """The Chebyshev series with these coefficients on _candidates().
    T_k(-t) = (-1)^k T_k(t), so the even part E and the odd part O are
    summed apart against the shared blocks on t >= 0, one matrix-vector
    product per block and parity, and p(+-t) = E(t) +- O(t)."""
    even, odd = np.zeros((2, _half_candidates().size))
    for start in range(0, coefficients.size, _CHEBYSHEV_BLOCK):
        part = coefficients[start : start + _CHEBYSHEV_BLOCK]
        block = _chebyshev_block(start // _CHEBYSHEV_BLOCK)[: part.size]
        even += part[0::2] @ block[0::2]
        odd += part[1::2] @ block[1::2]
    return np.concatenate(((even - odd)[:0:-1], even + odd))


def _clenshaw(coefficients, t):
    """sum_k c_k T_k(t) for a list of coefficients, by Clenshaw's
    recurrence (Clenshaw 1955) in plain floats."""
    b1 = b2 = 0.0
    for c in coefficients[:0:-1]:
        b1, b2 = c + 2.0 * t * b1 - b2, b1
    return coefficients[0] + t * b1 - b2


# bench/tracer.py patches lsq._golden_max by name: rename it with the next benchmark change
def _golden_max(g, t, v):
    """Successive parabolic interpolation (Brent 1973, ch. 5) from the
    ascending points t with values v: each of at most three steps takes
    g at the vertex of the parabola through three points, then keeps
    the higher middle point and its two neighbours.  It stops when the
    vertex leaves the bracket or repeats the middle.  Returns the
    highest (u, g(u)) found, or (t[1], -inf) if no step ran."""
    points, found = list(zip(t, v)), [(t[1], -math.inf)]
    for _ in range(3):
        (a, fa), (b, fb), (c, fc) = points
        p, q = (b - a) * (fb - fc), (b - c) * (fb - fa)
        u = b - 0.5 * ((b - a) * p - (b - c) * q) / (p - q) if p != q else b
        if not a < u < c or u == b:
            break
        found.append((u, g(u)))
        points = sorted(points + found[-1:])
        k = 2 if points[2][1] > points[1][1] else 1
        points = points[k - 1 : k + 2]
    return max(found, key=lambda point: point[1])


def sup_error(f, a, bound=None):
    """Measured sup of |f - a| over [-1,1].

    Dense composite grid first, then at most three parabolic steps from
    the grid argmax and its two neighbours (the first or last three
    candidates at an end point).  The grid maximum, ties to the leftmost,
    stands unless a step finds a larger error.  The grid sums the
    Chebyshev coefficients by _scan, the steps by Clenshaw's recurrence;
    f on the grid is the spec's own _candidate_values, sampled once.
    When `bound` is given the report also carries sup_error/bound.
    """
    cand = _candidates()
    coefficients = _chebyshev_coefficients(a)
    errs = np.abs(f._candidate_values - _scan(coefficients))
    i = int(np.argmax(errs))
    j = min(max(i, 1), cand.size - 2)
    series = coefficients.tolist()

    def local_error(t):
        return abs(float(_sample(f, t)) - _clenshaw(series, t))

    bracket = slice(j - 1, j + 2)
    best_t, best_v = _golden_max(local_error, cand[bracket].tolist(), errs[bracket].tolist())
    if not best_v > errs[i]:
        best_t, best_v = float(cand[i]), float(errs[i])
    ratio = None
    if bound is not None:
        ratio = best_v / bound if bound > 0 else math.inf
    return ErrorReport(sup_error=best_v, argmax=best_t, bound=bound, ratio=ratio)


def extremal_function(n, params):
    """Sharpness witness f* = hatQ_{n+1}/S with S = sup |hatQ_{n+1}^{(n+1)}|,
    which is (-1)^{n+1} D_{n,N} Q_{n+1}(N(1+t)/2).

    Unit (n+1)-st derivative sup by construction, zero least-squares fit
    at degree n by orthogonality, so its sup error is exactly the
    worst-case constant, which is also its scale.  Requires the symmetric
    weight and the degree hypothesis n+1 <= n(alpha, N).  A D below the
    smallest normal double, or one that does not give f* a unit
    (n+1)-st derivative, raises an InstabilityError.
    """
    if not params.symmetric:
        raise ParameterError(
            f"witness defined for alpha = beta, got {params.alpha} != {params.beta}"
        )
    alpha, N = params.alpha, params.N
    front = (-1.0) ** (n + 1) * bounds.worst_case_constant(n, N, alpha)
    # f*^{(n+1)} = D (n+1)! (N/2)^{n+1} lead_x Q_{n+1} must have modulus 1,
    # which checks D against the recurrence.  lead_x Q_{n+1} is
    # (-1)^{n+1} (a+b+2) / ((a+1) N prod_{k=1..n} A_k), which is 2/N over
    # the product when a = b, leaving (N/2)^n; the check is taken in logs.
    logs = [math.log(abs(front)), math.lgamma(n + 2.0), n * math.log(N / 2.0)]
    logs += [-math.log(A) for A, _ in hahn._recurrence_coefficients(n + 1, alpha, alpha, float(N))]
    deviation = math.expm1(math.fsum(logs))
    if abs(deviation) > 1e-10:
        raise InstabilityError(
            f"witness scale off by {deviation:.3e} relative: D_{{n,N}} disagrees with "
            f"the leading coefficient of Q_{n + 1} (n={n}, N={N}, alpha={alpha})"
        )

    hahn._check_range(n + 1, N)

    def evaluator(t):
        # a float t stays a float, so the polish runs in plain floats
        return front * hahn._hahn_top(n + 1, N * (1.0 + t) / 2.0, params)

    def derivative_sup(order):
        if order == n + 1:
            return 1.0
        raise MissingDerivativeBoundError(
            f"witness certifies only derivative order {n + 1}, asked for {order}"
        )

    # Q_{n+1}(N - x) = (-1)^{n+1} Q_{n+1}(x) for alpha = beta, up to the
    # rounding of N(1+t)/2
    return FunctionSpec(f"extremal:{n}", evaluator, derivative_sup, (-1) ** (n + 1))


def class_K_defect(f, n, alpha):
    """Membership defect sup|f^{(n)}| * n^{alpha+1/2} / (2^n n!).

    Decay to 0 along n is what places f in the class where the fitted
    sequence converges uniformly under the quadratic node rule.
    """
    if alpha < -0.5:
        raise ParameterError(f"defect defined for alpha >= -1/2, got {alpha}")
    if n < 0:
        raise ParameterError(f"order must be >= 0, got {n}")
    if f.derivative_sup is None:
        raise MissingDerivativeBoundError(f"{f.name} carries no derivative bounds")
    value = float(f.derivative_sup(n))
    if value == 0.0:
        return 0.0
    if n == 0:
        return value * 0.0 ** (alpha + 0.5)
    return math.exp(
        math.log(value) + (alpha + 0.5) * math.log(n) - n * _LN2 - math.lgamma(n + 1.0)
    )
