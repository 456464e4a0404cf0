"""Independent oracles for the test suite.

Everything here is deliberately written from first principles, without
importing the package internals it is used to check: exact rational
weights, series evaluation, least squares and the worst-case constants
via Fraction arithmetic, log weights and a least-squares fit in
multi-digit mpmath, a Chebyshev-series lower bound on the best
uniform approximation of exp, and two classical quadrature rules for
the continuous inner products.

The exceptions are the last four functions, the subjects of acceptance
criteria that only tests call, so they live here and not in the package:
`endpoint_max_check` (criterion 09) steps the package's recurrence
`hahn._hahn_top`, so the criterion covers it; `inner_product` (01) sums
on the package's weight vector; `stirling_sandwich_logs` and
`gamma_ratio_residual` (05, 06) raise the package's ParameterError.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

from hahn_lsq import hahn
from hahn_lsq.bounds import degree_threshold
from hahn_lsq.errors import ParameterError, ThresholdError

_LN2 = math.log(2.0)


def frac_weight(i, alpha, beta, N):
    """omega(i) for rational alpha, beta > -1, exactly, from the product
    form C(a+m, m) = prod_{j=1..m} (a+j)/j; an integer for integer alpha, beta."""

    def binomial(a, m):
        return math.prod((Fraction(a) + j) / j for j in range(1, m + 1))

    return binomial(alpha, i) * binomial(beta, N - i)


def frac_hahn(n, x, alpha, beta, N):
    """Q_n(x) summed term by term in exact rationals; float arguments are
    taken at their exact binary values."""
    x, alpha, beta = Fraction(x), Fraction(alpha), Fraction(beta)
    total = Fraction(1)
    term = Fraction(1)
    for k in range(n):
        num = Fraction(k - n) * (n + alpha + beta + 1 + k) * (k - x)
        den = Fraction(alpha + 1 + k) * (k - N) * (k + 1)
        term = term * num / den
        total += term
    return total


def frac_hahn_leading(n, alpha, beta, N):
    """Coefficient of x^n in Q_n(x), from the k = n term of the series:
    (n+alpha+beta+1)_n / ((alpha+1)_n (-N)_n), exact for dyadic alpha, beta."""
    a, b = Fraction(alpha), Fraction(beta)
    out = Fraction(1)
    for i in range(n):
        out *= (n + a + b + 1 + i) / ((a + 1 + i) * (i - N))
    return out


def frac_inner(f_vals, g_vals, alpha, beta, N):
    """Exact weighted grid sum of two Fraction sample vectors."""
    total = Fraction(0)
    for i in range(N + 1):
        total += Fraction(f_vals[i]) * Fraction(g_vals[i]) * frac_weight(i, alpha, beta, N)
    return total


def frac_norm_brute(k, alpha, beta, N):
    samples = [frac_hahn(k, i, alpha, beta, N) for i in range(N + 1)]
    return frac_inner(samples, samples, alpha, beta, N)


def frac_norm_closed(k, alpha, beta, N):
    """Closed-form squared norm, exactly, for integer alpha, beta >= 0:

        (-1)^k (k+a+b+1)_{N+1} (b+1)_k k! / ((2k+a+b+1) (a+1)_k (-N)_k N!).
    """

    def rising(a, m):
        return math.prod(a + i for i in range(m))

    num = (-1) ** k * rising(k + alpha + beta + 1, N + 1) * rising(beta + 1, k) * math.factorial(k)
    den = (2 * k + alpha + beta + 1) * rising(alpha + 1, k) * rising(-N, k) * math.factorial(N)
    return Fraction(num, den)


def mp_log_binomials(a, N, dps=40):
    """log C(a+i, i) for i = 0..N as floats, from dps-digit log-gammas."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(a)
        base = mpmath.loggamma(a + 1)
        return [float(mpmath.loggamma(a + i + 1) - mpmath.loggamma(i + 1) - base)
                for i in range(N + 1)]


def mp_fit_values(f, n, alpha, N, ts, dps=50):
    """Values at ts of the degree-n least-squares fit of f (an mpmath
    function) on the grid x_mu = (2mu - N)/N with the symmetric Hahn
    weight, all in dps digits: the weight from mpmath binomials, the basis
    from the hypergeometric series, each coefficient one projection."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        side = [mpmath.binomial(a + i, i) for i in range(N + 1)]
        w = [side[i] * side[N - i] for i in range(N + 1)]
        fs = [f(mpmath.mpf(2 * i - N) / N) for i in range(N + 1)]

        def q(k, x):
            term = total = mpmath.mpf(1)
            for j in range(k):
                term *= (j - k) * (k + 2 * a + 1 + j) * (j - x) / ((a + 1 + j) * (j - N) * (j + 1))
                total += term
            return total

        xs = [N * (1 + mpmath.mpf(float(t))) / 2 for t in ts]
        out = [mpmath.mpf(0)] * len(xs)
        for k in range(n + 1):
            grid = [q(k, i) for i in range(N + 1)]
            c = mpmath.fsum(fs[i] * grid[i] * w[i] for i in range(N + 1)) / mpmath.fsum(
                grid[i] ** 2 * w[i] for i in range(N + 1)
            )
            out = [v + c * q(k, x) for v, x in zip(out, xs)]
        return [float(v) for v in out]


def solve_exact(A, b):
    """Gaussian elimination over Fractions; A square, nonsingular."""
    n = len(b)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [v - factor * p for v, p in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def frac_grid(N):
    return [Fraction(2 * mu - N, N) for mu in range(N + 1)]


def frac_fit_monomial(f_vals, n, alpha, beta, N):
    """Exact weighted least squares on the grid, monomial coefficients."""
    ts = frac_grid(N)
    G = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    rhs = [Fraction(0)] * (n + 1)
    for mu in range(N + 1):
        w = frac_weight(mu, alpha, beta, N)
        powers = [ts[mu] ** j for j in range(n + 1)]
        for i in range(n + 1):
            rhs[i] += Fraction(f_vals[mu]) * powers[i] * w
            for j in range(i, n + 1):
                G[i][j] += powers[i] * powers[j] * w
                if j != i:
                    G[j][i] = G[i][j]
    return solve_exact(G, rhs)


def frac_fit_hahn(f_vals, n, alpha, beta, N):
    """Exact least-squares coefficients in the Hahn basis, by projection."""
    coeffs = []
    for k in range(n + 1):
        qk = [frac_hahn(k, i, alpha, beta, N) for i in range(N + 1)]
        num = frac_inner(f_vals, qk, alpha, beta, N)
        den = frac_inner(qk, qk, alpha, beta, N)
        coeffs.append(num / den)
    return coeffs


def frac_monomial_to_grid(mono, N):
    ts = frac_grid(N)
    return [sum(c * t**j for j, c in enumerate(mono)) for t in ts]


def _bessel_i_at_one(k, terms=12):
    """Rational bracket (low, high) on I_k(1) = sum_m 2^{-(2m+k)}/(m!(m+k)!).

    All terms are positive, so the partial sum is a lower bound.  The
    term ratio 1/(4(m+1)(m+k+1)) falls with m, so the remainder is at
    most the first omitted term over (1 - its ratio to the next).
    """
    low = Fraction(0)
    for m in range(terms):
        low += Fraction(1, 2 ** (2 * m + k) * math.factorial(m) * math.factorial(m + k))
    first_omitted = Fraction(
        1, 2 ** (2 * terms + k) * math.factorial(terms) * math.factorial(terms + k)
    )
    ratio = Fraction(1, 4 * (terms + 1) * (terms + k + 1))
    return low, low + first_omitted / (1 - ratio)


def exp_best_approx_lower(n):
    """Exact rational lower bound on E_n(exp), the least uniform error on
    [-1, 1] of any polynomial of degree <= n.

    exp = I_0(1) + sum_{k>=1} a_k T_k with a_k = 2 I_k(1) > 0.  Let S_n be
    the truncation after T_n.  At the n+2 points cos(j pi/(n+1)) the
    remainder exp - S_n = a_{n+1} T_{n+1} + sum_{k>=n+2} a_k T_k has sign
    (-1)^j and size at least a_{n+1} - sum_{k>=n+2} a_k.  By de la Vallee
    Poussin, E_n(exp) is at least that smallest alternating value.

    The tail is bounded termwise: I_{k+1}(1) <= I_k(1)/(2(k+1)), so
    sum_{k>=K} I_k(1) <= I_K(1) * 2(K+1)/(2K+1) with K = n+2.
    """
    lead_low, _ = _bessel_i_at_one(n + 1)
    _, next_high = _bessel_i_at_one(n + 2)
    K = n + 2
    tail_high = next_high * Fraction(2 * (K + 1), 2 * K + 1)
    return 2 * lead_low - 2 * tail_high


def frac_continuous_constant(n, alpha):
    """C_n(alpha) = 2^{n+1} (alpha+1)_{n+1} / ((n+1)! (n+2alpha+2)_{n+1}),
    the Gamma block of the worst-case constant written as rising
    factorials.  Exact for any dyadic alpha, which every double is."""
    a = Fraction(alpha)
    num = Fraction(2 ** (n + 1))
    den = Fraction(math.factorial(n + 1))
    for i in range(n + 1):
        num *= a + 1 + i
        den *= n + 2 * a + 2 + i
    return num / den


def frac_worst_case_constant(n, N, alpha):
    """D_{n,N} = C_n(alpha) * prod_{i=1}^{n} (1 - i/N), exactly."""
    grid = Fraction(1)
    for i in range(1, n + 1):
        grid *= 1 - Fraction(i, N)
    return frac_continuous_constant(n, alpha) * grid


def frac_min_nodes_c3(n, alpha):
    """ceil((2n^2 + (4 alpha + 2) n) / (2 alpha + 1)) on the exact binary
    value of alpha, by Fraction arithmetic and math.ceil."""
    a = Fraction(alpha)
    return math.ceil((2 * n * n + (4 * a + 2) * n) / (2 * a + 1))


def gauss_legendre_inner(f, g, degree_bound):
    """integral_{-1}^{1} f g dx, exact for polynomial integrands.

    Node count covers degree_bound with headroom; both callables are
    vectorized over numpy arrays.
    """
    m = (degree_bound + 2) // 2 + 8
    nodes, weights = np.polynomial.legendre.leggauss(m)
    return float(np.sum(weights * f(nodes) * g(nodes)))


def chebyshev2_inner(f, g, m=260):
    """integral_{-1}^{1} sqrt(1-x^2) f g dx by the second-kind rule.

    x_i = cos(i pi/(m+1)), w_i = (pi/(m+1)) sin^2(i pi/(m+1)); exact for
    polynomial f g up to degree 2m - 1.
    """
    i = np.arange(1, m + 1)
    theta = i * math.pi / (m + 1)
    nodes = np.cos(theta)
    weights = (math.pi / (m + 1)) * np.sin(theta) ** 2
    return float(np.sum(weights * f(nodes) * g(nodes)))


def longdouble_fit(fs, n, alpha, beta, N):
    """Hahn coefficients c_0..c_n of the samples fs on the grid 0..N, with
    the package's log1p weights, three-term recurrence and norm ratios
    carried in extended precision (np.longdouble); the samples stay the
    given doubles."""
    ld = np.longdouble
    a, b, N_ = ld(alpha), ld(beta), ld(N)
    j = np.arange(1, N + 1, dtype=ld)
    left = np.concatenate(([ld(0)], np.cumsum(np.log1p(a / j))))
    right = np.concatenate(([ld(0)], np.cumsum(np.log1p(b / j))))
    logs = left + right[::-1]
    w = np.exp(logs - logs.max())
    fw = np.asarray(fs, dtype=ld) * w
    x = np.arange(N + 1, dtype=ld)
    prev, cur = np.ones(N + 1, dtype=ld), 1 - x * (a + b + 2) / ((a + 1) * N_)
    dots, ratios = [prev @ fw], [ld(1)]
    A_prev = (a + 1) * N_ / (a + b + 2)
    for k in range(1, n + 1):
        dots.append(cur @ fw)
        s = a + b + 2 * k
        A = (k + a + b + 1) * (k + a + 1) * (N_ - k) / ((s + 1) * (s + 2))
        C = k * (k + a + b + N_ + 1) * (k + b) / (s * (s + 1))
        ratios.append(ratios[-1] * C / A_prev)
        A_prev = A
        prev, cur = cur, ((A + C - x) * cur - C * prev) / A
    return np.array(dots, dtype=ld) / (w.sum() * np.array(ratios, dtype=ld))


def inner_product(f_values, g_values, weight):
    """Discrete inner product sum_i f(i) g(i) omega(i), via fsum."""
    w = weight.values
    f = np.asarray(f_values, dtype=float)
    g = np.asarray(g_values, dtype=float)
    if f.shape != w.shape or g.shape != w.shape:
        raise ValueError(
            f"sample arrays must have length N+1={w.size}, got {f.size} and {g.size}"
        )
    return math.fsum((f * g * w).tolist())


_ENDPOINT_CHUNK = 4096


def endpoint_max_check(n, alpha, N, refine=64):
    """True iff Q_n(.; alpha, alpha, N) attains its maximum modulus at the
    grid endpoints, with Q_n(0) = 1 and Q_n(N) = (-1)^n, all within 1e-10.

    Sampling is the integer grid refined `refine` times.  Only asserted
    for degrees n <= n(alpha, N); beyond that a ThresholdError is raised
    because the endpoint property is not claimed there.
    """
    params = hahn.HahnParams(alpha, alpha, N)
    threshold = degree_threshold(alpha, N)
    if n > threshold:
        raise ThresholdError(
            f"endpoint maximum asserted only for n <= n(alpha,N)={threshold:.6g}, got n={n}"
        )
    hahn._check_degree(n, N)
    hahn._check_range(n, N)
    tol = 1e-10
    first, last = hahn._hahn_top(n, 0.0, params), hahn._hahn_top(n, float(N), params)
    if abs(first - 1.0) > tol or abs(last - (-1.0) ** n) > tol:
        return False
    # the refined grid i / refine goes through the recurrence a chunk at a
    # time, and only the top row of each chunk is kept
    top, size = 0.0, refine * N + 1
    for start in range(0, size, _ENDPOINT_CHUNK):
        xs = np.arange(start, min(start + _ENDPOINT_CHUNK, size), dtype=float) / refine
        row = hahn._hahn_top(n, xs, params)
        top = np.maximum(top, np.abs(row, out=row).max())
    return bool(top <= max(abs(first), abs(last)) + tol)


def stirling_sandwich_logs(n):
    """Logs of the two-sided enclosure of v_n = 2^n n!/(2n)!.

    Returns (log lower, log value, log upper) with

        lower = sqrt(pi n)/(2^n n!) * exp(2/(12n+1) - 1/(24n))
        upper = sqrt(pi n)/(2^n n!) * exp(1/(6n)    - 1/(24n+1))

    The log form keeps the three quantities comparable after v_n drops
    below the smallest positive double (n around 150).  At n + 1 it is
    the sandwich of the alpha = 0 constant C_n(0) = v_{n+1}.
    """
    if n < 1:
        raise ParameterError(f"stirling_sandwich requires n >= 1, got {n!r}")
    log_fact = math.lgamma(n + 1.0)
    log_value = n * _LN2 + log_fact - math.lgamma(2.0 * n + 1.0)
    log_front = 0.5 * math.log(math.pi * n) - n * _LN2 - log_fact
    log_lower = log_front + 2.0 / (12 * n + 1) - 1.0 / (24 * n)
    log_upper = log_front + 1.0 / (6 * n) - 1.0 / (24 * n + 1)
    return log_lower, log_value, log_upper


def gamma_ratio_residual(a, b, N):
    """N^(b-a) Gamma(N+a)/Gamma(N+b) - 1 - (a-b)(a+b-1)/(2N).

    What remains after removing the leading correction is O(N^-2);
    callers confirm this by checking residual * N^2 stays bounded.
    """
    if a <= 0 or b <= 0:
        raise ParameterError(f"gamma_ratio_residual requires a, b > 0, got a={a!r}, b={b!r}")
    if N < 1:
        raise ParameterError(f"gamma_ratio_residual requires N >= 1, got {N!r}")
    ratio = math.exp((b - a) * math.log(N) + math.lgamma(N + float(a)) - math.lgamma(N + float(b)))
    return ratio - 1.0 - (a - b) * (a + b - 1.0) / (2.0 * N)
