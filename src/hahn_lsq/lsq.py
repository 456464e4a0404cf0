"""Discrete least-squares fitting on the equidistant grid x_mu = (2mu - N)/N.

The Hahn-expansion fit, an independent normal-equations oracle, dense
sup-error measurement, the sharpness witness, and the class-K membership
defect.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import bounds, hahn
from .errors import (
    DegreeError,
    DomainError,
    InstabilityError,
    MissingDerivativeBoundError,
    ParameterError,
    ThresholdError,
)

_LN2 = math.log(2.0)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class FunctionSpec:
    """A named target function on [-1,1].

    derivative_sup(k), when provided, must upper-bound sup |f^{(k)}|;
    bound and class-membership claims are skipped without it.
    """

    name: str
    evaluator: Callable
    derivative_sup: Optional[Callable] = None


@dataclass(frozen=True)
class Approximant:
    """Degree-n expansion sum_k c_k Q_k(N(1+t)/2) in the Hahn basis."""

    params: hahn.HahnParams
    degree: int
    coefficients: tuple

    def __post_init__(self):
        if self.degree < 0 or self.degree > self.params.N:
            raise DegreeError(
                f"approximant degree must satisfy 0 <= n <= N={self.params.N}, got {self.degree}"
            )
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


def _sample(f, ts):
    """Evaluate a FunctionSpec on an array, tolerating scalar-only evaluators."""
    try:
        vals = np.asarray(f.evaluator(ts), dtype=float)
        if vals.shape == ts.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(f.evaluator(t)) for t in ts])


def _sample_scalar(f, t):
    return float(np.asarray(f.evaluator(t), dtype=float).reshape(()))


def _grid_sum(values):
    # fsum keeps the alternating grid sums stable; overflow of partial
    # sums, or terms that are already +inf and -inf, mean the fit cannot
    # be represented, not a silent inf or a traceback.
    try:
        return math.fsum(values.tolist())
    except (OverflowError, ValueError) as exc:
        raise InstabilityError(f"overflow in weighted grid sum: {exc}") from exc


def _weighted_samples(f, n, params):
    """Grid nodes, samples of f and the scaled weight for a degree-n fit.

    A sample that is not finite leaves no fit to compute, so it raises an
    InstabilityError here rather than a numpy warning in the projection.
    """
    N = params.N
    if n < 0 or n > N:
        raise DegreeError(f"fit degree must satisfy 0 <= n <= N={N}, got {n}")
    ts = grid_points(N)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fs = _sample(f, ts)
    if not np.all(np.isfinite(fs)):
        raise InstabilityError(f"non-finite samples of {f.name} on the grid of N={N}")
    return ts, fs, hahn.DiscreteWeight.from_params(params).scaled()


def _project(values, n, params, w):
    """Approximant with c_k = <values, Q_k>_w / <Q_k, Q_k>_w, k = 0..n.

    The coefficients do not change when w is rescaled, so w is the
    scaled weight and the norms are its sum times the recurrence ratios.
    The recurrence runs against the data (Forsythe 1957): each row Q_k
    on the grid is contracted as it appears and then dropped.  Finite
    samples can still sum past the double range; numpy stays quiet about
    it because Approximant rejects the non-finite coefficient.
    """
    hahn._check_range(n, params.N)
    fw = values * w
    dots = np.empty(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, row in enumerate(hahn._hahn_rows(n, np.arange(params.N + 1, dtype=float), params)):
            dots[k] = row @ fw
        coefficients = dots / (w.sum() * hahn._norm_ratios(n, params))
    return Approximant(params, n, tuple(coefficients.tolist()))


def fit_hahn(f, n, params):
    """Least-squares coefficients c_k = <f, Q_k>_omega / <Q_k, Q_k>_omega
    for k = 0..n, from samples on the equidistant grid."""
    _, fs, w = _weighted_samples(f, n, params)
    return _project(fs, n, params, w)


def _cholesky_solve(L, rhs):
    y = np.linalg.solve(L, rhs)
    return np.linalg.solve(L.T, y)


def _exact_residual(G, x, rhs):
    """Residual rhs - G x in exact rational arithmetic, rounded once."""
    from fractions import Fraction

    n = len(rhs)
    out = np.empty(n)
    xf = [Fraction(v) for v in x]
    for i in range(n):
        acc = Fraction(rhs[i])
        for j in range(n):
            acc -= Fraction(G[i, j]) * xf[j]
        out[i] = float(acc)
    return out


def fit_normal_equations(f, n, params):
    """Independent oracle fit: assemble the weighted monomial Gram system
    on the grid, solve by Cholesky with exact-residual refinement, then
    re-express the monomial solution in the Hahn basis by projection.

    Raises an instability error when the Gram condition estimate exceeds
    1e12 (monomial basis at large degree); the Hahn path is then
    authoritative.
    """
    ts, fs, w = _weighted_samples(f, n, params)
    V = np.vander(ts, n + 1, increasing=True)
    G = np.empty((n + 1, n + 1))
    rhs = np.empty(n + 1)
    for i in range(n + 1):
        rhs[i] = _grid_sum(V[:, i] * fs * w)
        for j in range(i, n + 1):
            G[i, j] = _grid_sum(V[:, i] * V[:, j] * w)
            G[j, i] = G[i, j]
    cond = float(np.linalg.cond(G))
    if not math.isfinite(cond) or cond > 1e12:
        raise InstabilityError(
            f"monomial Gram condition {cond:.3e} exceeds 1e12 at degree {n}; use fit_hahn"
        )
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise InstabilityError(f"Gram matrix not numerically positive definite: {exc}") from exc
    mono = _cholesky_solve(L, rhs)
    for _ in range(2):
        correction = _cholesky_solve(L, _exact_residual(G, mono, rhs))
        mono = mono + correction
        if np.max(np.abs(correction)) <= 1e-16 * max(1.0, np.max(np.abs(mono))):
            break
    return _project(V @ mono, n, params, w)


def evaluate(a, t):
    """Evaluate sum_k c_k Q_k(N(1+t)/2) at t (scalar or array).

    A scalar t takes the plain-float recurrence; its values, and the
    matrix product that sums them, are those of a one-point table.
    """
    arr = np.asarray(t, dtype=float)
    if arr.ndim == 0:
        column = hahn._hahn_column(a.degree, a.params.N * (1.0 + float(arr)) / 2.0, a.params)
        return float((np.asarray(a.coefficients) @ np.array(column)[:, None])[0])
    xs = a.params.N * (1.0 + arr.ravel()) / 2.0
    table = hahn.hahn_table(a.degree, xs, a.params)
    return (np.asarray(a.coefficients) @ table).reshape(arr.shape)


_candidate_cache = None


def _candidates():
    # 10001 equispaced points union 4097 Chebyshev points, endpoints
    # included; sorted ascending so tie-breaks are reproducible.
    global _candidate_cache
    if _candidate_cache is None:
        eq = np.linspace(-1.0, 1.0, 10001)
        ch = np.cos(np.arange(4097) * (math.pi / 4096.0))
        _candidate_cache = np.union1d(eq, ch)
    return _candidate_cache


@functools.lru_cache(maxsize=64)
def _chebyshev_transform(n):
    """First-kind Chebyshev points t_j = cos(pi (j + 1/2)/(n+1)), j = 0..n,
    and the (n+1)^2 cosine matrix that takes the values of a degree-n
    polynomial there to its Chebyshev coefficients."""
    theta = (np.arange(n + 1) + 0.5) * (math.pi / (n + 1))
    matrix = np.cos(np.outer(np.arange(n + 1), theta)) * (2.0 / (n + 1))
    matrix[0] *= 0.5
    return np.cos(theta), matrix


# T_0, T_1, ... on _candidates(), in blocks of _CHEBYSHEV_BLOCK rows.  It
# depends on no parameter, so one table serves every fit; it is built
# on first use and grows a block at a time, and no block is ever copied.
_CHEBYSHEV_BLOCK = 16
_chebyshev_blocks = []


def _chebyshev_table(rows):
    """The blocks holding T_0..T_{rows-1} on _candidates(), grown as needed."""
    t = _candidates()
    while len(_chebyshev_blocks) * _CHEBYSHEV_BLOCK < rows:
        block = np.empty((_CHEBYSHEV_BLOCK, t.size))
        if _chebyshev_blocks:
            older, old = _chebyshev_blocks[-1][-2:]
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
        _chebyshev_blocks.append(block)
    return _chebyshev_blocks


def _scan(a):
    """The approximant on _candidates(): its Chebyshev coefficients from
    its values at n+1 Chebyshev points, summed against the shared table
    by one matrix-vector product per block."""
    nodes, matrix = _chebyshev_transform(a.degree)
    coefficients = matrix @ evaluate(a, nodes)
    blocks = _chebyshev_table(a.degree + 1)
    out = np.zeros(_candidates().size)
    for start in range(0, a.degree + 1, _CHEBYSHEV_BLOCK):
        part = coefficients[start : start + _CHEBYSHEV_BLOCK]
        out += part @ blocks[start // _CHEBYSHEV_BLOCK][: part.size]
    return out


def _golden_max(g, lo, hi, rel_tol=1e-10):
    tol = rel_tol * max(1.0, abs(lo), abs(hi))
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    gc, gd = g(c), g(d)
    while hi - lo > tol:
        if gc >= gd:
            hi, d, gd = d, c, gc
            c = hi - _INVPHI * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + _INVPHI * (hi - lo)
            gd = g(d)
    mid = 0.5 * (lo + hi)
    return mid, g(mid)


def sup_error(f, a, bound=None):
    """Measured sup of |f - a| over [-1,1].

    Dense composite grid first, then a golden-section polish of the
    bracket around the grid argmax down to relative width 1e-10.  Ties
    resolve to the leftmost grid point.  On the grid the approximant is
    summed in the Chebyshev basis (see _scan); the polish evaluates it
    in the Hahn basis.  When `bound` is given the report also carries
    the ratio sup_error/bound.
    """
    cand = _candidates()
    errs = np.abs(_sample(f, cand) - _scan(a))
    i = int(np.argmax(errs))
    best_t, best_v = float(cand[i]), float(errs[i])
    lo = float(cand[i - 1]) if i > 0 else float(cand[0])
    hi = float(cand[i + 1]) if i + 1 < cand.size else float(cand[-1])

    def local_error(t):
        return abs(_sample_scalar(f, t) - evaluate(a, t))

    refined_t, refined_v = _golden_max(local_error, lo, hi)
    if refined_v > best_v:
        best_t, best_v = refined_t, refined_v
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
    weight and the degree hypothesis n+1 <= n(alpha, N); a D below the
    smallest normal double raises an InstabilityError.
    """
    if not params.symmetric:
        raise ParameterError(
            f"witness defined for alpha = beta, got {params.alpha} != {params.beta}"
        )
    alpha, N = params.alpha, params.N
    threshold = bounds.degree_threshold(alpha, N)
    if n + 1 > threshold:
        raise ThresholdError(
            f"degree hypothesis violated: n+1={n + 1} > n(alpha,N)={threshold:.6g}"
        )
    if n + 1 > N:
        raise DegreeError(f"witness needs n+1 <= N, got n={n}, N={N}")
    front = (-1.0) ** (n + 1) * bounds.worst_case_constant(n, N, alpha)

    def evaluator(t):
        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            return front * hahn._hahn_column(n + 1, N * (1.0 + float(arr)) / 2.0, params)[n + 1]
        hahn._check_range(n + 1, N)
        for row in hahn._hahn_rows(n + 1, N * (1.0 + arr.ravel()) / 2.0, params):
            pass
        return (front * row).reshape(arr.shape)

    def derivative_sup(order):
        if order == n + 1:
            return 1.0
        raise MissingDerivativeBoundError(
            f"witness certifies only derivative order {n + 1}, asked for {order}"
        )

    return FunctionSpec(f"extremal:{n}", evaluator, derivative_sup)


def class_K_defect(f, n, alpha):
    """Membership defect sup|f^{(n)}| * n^{alpha+1/2} / (2^n n!).

    Decay to 0 along n is what places f in the class where the fitted
    sequence converges uniformly under the quadratic node rule.
    """
    if alpha < -0.5:
        raise ParameterError(f"defect defined for alpha >= -1/2, got {alpha}")
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
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
