"""Reference computations the benchmark checks `hahn_lsq` against.

Nothing here imports `hahn_lsq`.  Fits are weighted least squares by
Householder QR on a Chebyshev basis, with weights from this module's own
`lgamma` code.  The constants D, C and the grid factor are exact
rationals: every double is a dyadic rational, and the Gamma quotients in
D reduce to rising factorials, so

    D_{n,N} = 2^{n+1} (a+1)_{n+1} / ((n+1)! (n+2a+2)_{n+1}) * prod_{i<=n} (1 - i/N)

is exact for any float alpha (for integer alpha this is the factorial
form).  The threshold is taken to 40 digits with `decimal`, and the
degree hypothesis is decided by an exact comparison of squares.
`self_test` checks these references against exact rational arithmetic
on grids with N <= 12.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from numpy.polynomial import chebyshev as cheb

# The README documents agreement to 1e-9 relative to the grid scale for
# the float paths, and exit code 4 for a witness gap above 1e-8.
TOL = 1e-9
SHARPNESS_TOL = 1e-8


# ------------------------------------------------------------ targets


class Target:
    """A target function: a numpy evaluator and the derivative bound
    sup|f^(m)| <= dsup(m) that the CLI's bounds are defined with."""

    def __init__(self, name):
        self.name = name
        if name == "exp":
            self.f = np.exp
            self.dsup = lambda m: math.e
        elif name == "runge":
            self.f = lambda t: 1.0 / (1.0 + 25.0 * np.square(t))
            self.dsup = None
        elif name.startswith("sin"):
            k = int(name[3:])
            self.f = lambda t: np.sin(k * np.asarray(t, dtype=float))
            self.dsup = lambda m: float(k) ** m
        elif name.startswith("poly:"):
            coeffs = [float(c) for c in name[5:].split(",")]

            def horner(t):
                t = np.asarray(t, dtype=float)
                acc = np.zeros_like(t)
                for c in reversed(coeffs):
                    acc = acc * t + c
                return acc

            self.f = horner
            self.dsup = lambda m: sum(
                abs(coeffs[j]) * math.perm(j, m) for j in range(m, len(coeffs))
            )
        else:
            raise ValueError(f"no reference for target {name!r}")


# ------------------------------------------------------------ constants


def _poch(a, k):
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def grid_factor(n, N):
    """prod_{i=0}^{n} (1 - i/N) as an exact fraction."""
    return Fraction(math.prod(N - i for i in range(1, n + 1)), N**n)


def continuous_constant(n, alpha):
    a = Fraction(alpha)
    return Fraction(2 ** (n + 1)) * _poch(a + 1, n + 1) / (
        math.factorial(n + 1) * _poch(n + 2 * a + 2, n + 1)
    )


def worst_case_constant(n, N, alpha):
    return continuous_constant(n, alpha) * grid_factor(n, N)


def hypothesis(n, N, alpha):
    """n + 1 <= n(alpha, N), decided exactly: 2n+1+2a <= sqrt((2a+1)(2a+2N+1))."""
    a = Fraction(alpha)
    lhs = 2 * n + 1 + 2 * a
    return lhs <= 0 or lhs * lhs <= (2 * a + 1) * (2 * a + 2 * N + 1)


def threshold(alpha, N):
    a = Fraction(alpha)
    p = (2 * a + 1) * (2 * a + 2 * N + 1)
    with localcontext() as ctx:
        ctx.prec = 40
        root = (Decimal(p.numerator) / Decimal(p.denominator)).sqrt()
        return float(Decimal(0.5) - Decimal(alpha) + root / 2)


def min_nodes_c3(n, alpha):
    """Smallest N >= 1 for which the degree hypothesis holds exactly."""
    a = Fraction(alpha)
    lhs = 2 * n + 1 + 2 * a
    N = max(1, math.ceil((lhs * lhs - (2 * a + 1) ** 2) / (2 * (2 * a + 1))))
    while N > 1 and hypothesis(n, N - 1, alpha):
        N -= 1
    while not hypothesis(n, N, alpha):
        N += 1
    return N


def min_nodes_c4(n):
    return max(2 * n * (n + 1), 1)


def simplified_constant(n, alpha):
    return math.exp(
        0.5 * math.log(math.pi * n)
        - (n + 1) * math.log(2.0)
        - math.log(math.factorial(n + 1))
        + alpha * math.log(n)
        - math.lgamma(alpha + 1.0)
        - 2.0 * alpha * math.log(2.0)
    )


def class_k_defect(dsup_n, n, alpha):
    if dsup_n == 0.0:
        return 0.0
    return dsup_n * n ** (alpha + 0.5) / float(2**n * math.factorial(n))


# ------------------------------------------------------------ fits


def log_weights(alpha, beta, N):
    """log omega(i) = log C(alpha+i, i) + log C(beta+N-i, N-i), i = 0..N."""
    factorials = np.array([math.lgamma(i + 1.0) for i in range(N + 1)])

    def log_binomial(a):  # log C(a+i, i), i = 0..N
        return np.array([math.lgamma(a + i + 1.0) for i in range(N + 1)]) - factorials - math.lgamma(a + 1.0)

    left = log_binomial(alpha)
    right = left if beta == alpha else log_binomial(beta)
    return left + right[::-1]


def grid(N):
    return (2.0 * np.arange(N + 1) - N) / N


class Basis:
    """Orthonormal polynomials P_0..P_n of the discrete weight on the grid.

    QR of diag(sqrt(w)) T, with T the Chebyshev Vandermonde matrix and w
    the weight divided by its maximum e^shift, gives P = T M with
    M = R^{-1}.  The Hahn polynomial is Q_k = P_k / P_k(-1), since
    Q_k(0) = 1 at the left end t = -1 of the grid.
    """

    def __init__(self, alpha, beta, N, n):
        self.N, self.n = N, n
        self.t = grid(N)
        logw = log_weights(alpha, beta, N)
        self.shift = float(logw.max())
        self.sw = np.sqrt(np.exp(logw - self.shift))
        self.q, r = np.linalg.qr(self.sw[:, None] * cheb.chebvander(self.t, n))
        self.M = np.linalg.solve(r, np.eye(n + 1))
        self.pm1 = ((-1.0) ** np.arange(n + 1)) @ self.M

    def fit(self, fs):
        """Orthonormal-basis coefficients a and Chebyshev coefficients M a."""
        a = self.q.T @ (self.sw * fs)
        return a, self.M @ a

    def hahn_values(self):
        """Q_k(x_mu), shape (n+1, N+1)."""
        return (cheb.chebvander(self.t, self.n) @ self.M / self.pm1).T

    def hahn_norms(self):
        """<Q_k, Q_k> under the raw weight."""
        return math.exp(self.shift) / self.pm1**2


_DENSE = np.union1d(np.linspace(-1.0, 1.0, 16001), np.cos(np.arange(8193) * (math.pi / 8192.0)))


def sup_abs(err, keep=8, rounds=6, width=33):
    """(max |err(t)| over [-1, 1], argmax) for a vectorised err.

    Every local maximum of the dense scan within a factor 2 of the
    largest (at most `keep` of them) is refined by repeated subgrids of
    its bracket until the bracket is ~1e-12 wide.
    """
    ts = _DENSE
    vals = np.abs(err(ts))
    padded = np.concatenate(([-np.inf], vals, [-np.inf]))
    peaks = np.flatnonzero((padded[1:-1] >= padded[:-2]) & (padded[1:-1] >= padded[2:]))
    peaks = peaks[vals[peaks] >= 0.5 * vals.max()]
    peaks = peaks[np.argsort(vals[peaks])[::-1][:keep]]
    best_v, best_t = float(vals.max()), float(ts[np.argmax(vals)])
    for p in peaks:
        lo, hi = ts[max(p - 1, 0)], ts[min(p + 1, ts.size - 1)]
        for _ in range(rounds):
            sub = np.linspace(lo, hi, width)
            sv = np.abs(err(sub))
            j = int(np.argmax(sv))
            if sv[j] > best_v:
                best_v, best_t = float(sv[j]), float(sub[j])
            lo, hi = sub[max(j - 1, 0)], sub[min(j + 1, width - 1)]
    return best_v, best_t


# ------------------------------------------------------------ self-test


def _exact_weight(i, a, b, N):
    return _poch(a + 1, i) / math.factorial(i) * _poch(b + 1, N - i) / math.factorial(N - i)


def _exact_orthogonal(a, b, N, n):
    """Exact Q_0..Q_n on the grid by Gram-Schmidt of the monomials."""
    ts = [Fraction(2 * mu - N, N) for mu in range(N + 1)]
    w = [_exact_weight(mu, a, b, N) for mu in range(N + 1)]

    def inner(u, v):
        return sum(x * y * z for x, y, z in zip(u, v, w))

    basis = []
    for k in range(n + 1):
        v = [t**k for t in ts]
        for u in basis:
            c = inner(v, u) / inner(u, u)
            v = [x - c * y for x, y in zip(v, u)]
        basis.append(v)
    return ts, w, [[x / v[0] for x in v] for v in basis], inner


def self_test():
    """Check the references against exact rationals at N <= 12; returns
    the number of checks passed and raises AssertionError on a miss."""
    checks = 0
    for alpha, beta, N, n in [
        (0.0, 0.0, 4, 2), (0.5, 0.5, 7, 3), (1.0, 0.25, 12, 4), (2.0, 2.0, 9, 5), (1.5, 0.0, 11, 3),
    ]:
        a, b = Fraction(alpha), Fraction(beta)
        ts, w, Q, inner = _exact_orthogonal(a, b, N, n)
        lw = log_weights(alpha, beta, N)
        exact_lw = np.array([math.log(x) for x in w])
        assert np.max(np.abs(lw - exact_lw)) <= 1e-13, "lgamma weights"
        basis = Basis(alpha, beta, N, n)
        got_q = basis.hahn_values()
        want_q = np.array([[float(x) for x in row] for row in Q])
        assert np.max(np.abs(got_q - want_q)) <= 1e-12 * np.max(np.abs(want_q)), "Hahn values"
        norms = np.array([float(inner(v, v)) for v in Q])
        assert np.max(np.abs(basis.hahn_norms() / norms - 1.0)) <= 1e-12, "Hahn norms"
        fs = np.exp(basis.t)
        f_exact = [Fraction(float(x)) for x in fs]
        fitted = [Fraction(0)] * (N + 1)
        for v in Q:
            c = inner(f_exact, v) / inner(v, v)
            fitted = [x + c * y for x, y in zip(fitted, v)]
        _, g = basis.fit(fs)
        want_fit = np.array([float(x) for x in fitted])
        assert np.max(np.abs(cheb.chebval(basis.t, g) - want_fit)) <= 1e-13 * math.e, "fit"
        # sup of the exact fit's error: brute force on 400001 points
        mono = np.linalg.lstsq(
            np.vander([float(t) for t in ts], n + 1, increasing=True), want_fit, rcond=None
        )[0]
        dense = np.linspace(-1.0, 1.0, 400001)
        brute = np.max(np.abs(np.exp(dense) - np.polynomial.polynomial.polyval(dense, mono)))
        sup, _ = sup_abs(lambda t: np.exp(t) - cheb.chebval(t, g))
        assert brute - 1e-12 <= sup <= brute + 1e-9 * math.e, "dense sup"
        checks += 6
    for alpha in (0.0, 0.5, 1.0, 3.0):
        for n in range(0, 9):
            for N in range(n + 1, 13):
                # factorial form of the Gamma block for integer alpha
                if alpha == int(alpha):
                    al = int(alpha)
                    block = Fraction(
                        2 ** (n + 1) * math.factorial(n + 2 * al + 1) * math.factorial(n + al + 1),
                        math.factorial(n + 1) * math.factorial(2 * n + 2 * al + 2) * math.factorial(al),
                    )
                    ratio = Fraction(math.factorial(N), N ** (n + 1) * math.factorial(N - n - 1))
                    assert worst_case_constant(n, N, alpha) == block * ratio, "D"
                    checks += 1
                thr = threshold(alpha, N)
                assert hypothesis(n, N, alpha) == (n + 1 <= thr) or abs(n + 1 - thr) < 1e-9
                checks += 1
            c3 = min_nodes_c3(n, alpha)
            assert hypothesis(n, c3, alpha) and (c3 == 1 or not hypothesis(n, c3 - 1, alpha))
            if alpha >= 0:
                assert hypothesis(n, min_nodes_c4(n), alpha), "c4"
            checks += 2
    return checks


if __name__ == "__main__":
    print(f"oracle self-test: {self_test()} checks passed")
