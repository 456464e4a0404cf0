"""Independent oracles for the test suite.

Everything here is deliberately written from first principles, without
importing the package internals it is used to check: exact rational
weights, series evaluation, least squares and the worst-case constants
via Fraction arithmetic, a Chebyshev-series lower bound on the best
uniform approximation of exp, and two classical quadrature rules for
the continuous inner products.
"""

import math
from fractions import Fraction

import numpy as np


def frac_weight(i, alpha, beta, N):
    """omega(i) for integer alpha, beta >= 0, as an exact integer."""
    return math.comb(alpha + i, i) * math.comb(beta + N - i, N - i)


def frac_hahn(n, x, alpha, beta, N):
    """Q_n(x) summed term by term in exact rationals."""
    x = Fraction(x)
    total = Fraction(1)
    term = Fraction(1)
    for k in range(n):
        num = Fraction(k - n) * (n + alpha + beta + 1 + k) * (k - x)
        den = Fraction(alpha + 1 + k) * (k - N) * (k + 1)
        term = term * num / den
        total += term
    return total


def frac_inner(f_vals, g_vals, alpha, beta, N):
    """Exact weighted grid sum of two Fraction sample vectors."""
    total = Fraction(0)
    for i in range(N + 1):
        total += Fraction(f_vals[i]) * Fraction(g_vals[i]) * frac_weight(i, alpha, beta, N)
    return total


def frac_norm_brute(k, alpha, beta, N):
    samples = [frac_hahn(k, i, alpha, beta, N) for i in range(N + 1)]
    return frac_inner(samples, samples, alpha, beta, N)


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
