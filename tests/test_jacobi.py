import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import oracles
from hahn_lsq import bounds, errors


class TestContinuousConstant:
    def test_degree_one_legendre(self):
        assert bounds.continuous_constant(1, 0.0) == pytest.approx(1 / 3, rel=1e-13)

    def test_legendre_rational_form(self):
        # C_n(0) = 2^(n+1) (n+1)! / (2n+2)!
        for n in range(16):
            expected = Fraction(2 ** (n + 1) * math.factorial(n + 1), math.factorial(2 * n + 2))
            assert bounds.continuous_constant(n, 0.0) == pytest.approx(
                float(expected), rel=1e-13
            )

    @pytest.mark.parametrize("alpha", [-0.5, -0.25, 0.0, 0.5, 1.0, 2.5, 10.0])
    def test_is_the_jacobi_endpoint_over_the_leading_coefficient(self, alpha):
        """C_n = P_{n+1}(1) / (k_{n+1} (n+1)!), with P_m = P_m^{(alpha, alpha)}
        and k_m = binom(2m + 2 alpha, m) / 2^m its leading coefficient: the
        sup of the error of t^{n+1}/(n+1)! against its projection."""
        with mpmath.workdps(40):
            for n in range(0, 141, 7):
                m = n + 1
                lead = mpmath.binomial(2 * m + 2 * alpha, m) / mpmath.mpf(2) ** m
                exact = mpmath.jacobi(m, alpha, alpha, 1) / (lead * mpmath.factorial(m))
                # the lgamma sum loses about 4e-13 relative at n = 140
                assert bounds.continuous_constant(n, alpha) == pytest.approx(
                    float(exact), rel=1e-11
                )

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_is_the_sup_error_of_the_continuous_projection(self, alpha):
        """Project t^{n+1}/(n+1)! onto degree n under (1 - t^2)^alpha by
        normal equations in the monomials, with quadratures that are exact
        for these weights, and take the sup of the error on a dense grid."""
        if alpha == 0.5:
            inner = oracles.chebyshev2_inner
        else:
            a = int(alpha)

            def inner(f, g):
                # degree at most 2(n+1) + 2a <= 18
                return oracles.gauss_legendre_inner(lambda x: f(x) * (1 - x * x) ** a, g, 18)

        ts = np.linspace(-1.0, 1.0, 20001)
        for n in range(7):
            m = n + 1
            gram = [[inner(lambda x, i=i: x**i, lambda x, j=j: x**j) for j in range(m)]
                    for i in range(m)]
            moments = [inner(lambda x, i=i: x**i, lambda x: x**m) for i in range(m)]
            c = np.linalg.solve(np.array(gram), np.array(moments))
            error = (ts**m - np.polynomial.polynomial.polyval(ts, c)) / math.factorial(m)
            assert np.max(np.abs(error)) == pytest.approx(
                bounds.continuous_constant(n, alpha), rel=1e-12
            )

    def test_decreasing_in_degree(self):
        for alpha in (0.0, 0.5, 1.0):
            vals = [bounds.continuous_constant(n, alpha) for n in range(12)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_underflow_raises(self):
        assert bounds.continuous_constant(149, 0.5) == pytest.approx(1.8517578e-306, rel=1e-7)
        with pytest.raises(errors.InstabilityError, match="C_150 at alpha=0.5"):
            bounds.continuous_constant(150, 0.5)
        with pytest.raises(errors.InstabilityError):
            bounds.continuous_constant(400, 0.0)

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 3.0, 1e3, 1e4, 7e4])
    def test_unflagged_values_are_within_tolerance(self, alpha):
        for n in (0, 2, 70, 140):
            value = Fraction(bounds.continuous_constant(n, alpha))
            exact = oracles.frac_continuous_constant(n, alpha)
            assert abs(value - exact) <= Fraction(1, 10**9) * exact

    @pytest.mark.parametrize("alpha", [7.1e4, 1e6, 1e12, 1e200, 1e308])
    def test_cancellation_raises(self, alpha):
        # the log terms grow like alpha log alpha; summed at alpha = 1e200
        # they give C_2 = 1.0, where C_2 tends to 1/6
        for n in (0, 2, 140):
            with pytest.raises(errors.InstabilityError, match=f"C_{n} at alpha=.*cancel"):
                bounds.continuous_constant(n, alpha)

    def test_parameter_domain(self):
        with pytest.raises(errors.ParameterError):
            bounds.continuous_constant(2, -0.6)
        with pytest.raises(errors.ParameterError, match="degree must be >= 0"):
            bounds.continuous_constant(-1, 0.0)


class TestLogGamma:
    # the bound constants call the platform lgamma directly; their
    # rounding bound assumes it is correct to a few ulp on [1e-3, 1e6]
    def test_half_integer_value(self):
        assert math.lgamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15)

    @pytest.mark.parametrize("x", [1e-3, 0.1, 0.5, 1.5, 2.75, 10.25, 170.5, 1e4, 1e6])
    def test_within_a_few_ulp_of_multi_digit_log_gamma(self, x):
        with mpmath.workdps(40):
            exact = mpmath.loggamma(x)
            # relative where |ln Gamma| >= 1, absolute near its zeros at 1 and 2
            assert abs(math.lgamma(x) - exact) <= 4 * sys.float_info.epsilon * max(
                1, abs(exact)
            )
