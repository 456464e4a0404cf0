import math
import sys
from fractions import Fraction

import mpmath
import pytest

import oracles
from hahn_lsq import errors


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


class TestRequireNormal:
    @pytest.mark.parametrize("value", [sys.float_info.min, 1.0, 1e308, math.inf])
    def test_normal_value_is_returned_unchanged(self, value):
        assert errors.require_normal(value, "C_{}", 3) is value

    @pytest.mark.parametrize("value", [sys.float_info.min / 2, 5e-324, 0.0])
    def test_value_below_the_normal_range_raises(self, value):
        with pytest.raises(errors.InstabilityError, match=r"^C_3 at alpha=0\.5 = .* underflows"):
            errors.require_normal(value, "C_{} at alpha={!r}", 3, 0.5)

    def test_message_is_built_only_when_raising(self):
        class Unformattable:
            def __format__(self, spec):
                raise AssertionError("message built for a normal value")

        assert errors.require_normal(2.0, "{}", Unformattable()) == 2.0
        with pytest.raises(AssertionError):
            errors.require_normal(0.0, "{}", Unformattable())


class TestStirlingSandwich:
    def test_value_at_one(self):
        lower, value, upper = map(math.exp, oracles.stirling_sandwich_logs(1))
        assert value == pytest.approx(1.0, rel=1e-14)
        # direct evaluation of the two exponential factors
        front = math.sqrt(math.pi) / 2.0
        assert lower == pytest.approx(front * math.exp(2 / 13 - 1 / 24), rel=1e-13)
        assert upper == pytest.approx(front * math.exp(1 / 6 - 1 / 25), rel=1e-13)
        assert lower <= 1.0 <= upper

    def test_value_matches_exact_rational(self):
        for n in (1, 2, 5, 20, 60):
            exact = Fraction(2**n * math.factorial(n), math.factorial(2 * n))
            value = math.exp(oracles.stirling_sandwich_logs(n)[1])
            assert value == pytest.approx(float(exact), rel=1e-13)

    def test_logs_ordering_full_range(self):
        # past n ~ 150 the plain triple underflows; the log form keeps
        # the three quantities distinguishable
        for n in range(1, 501):
            lo, val, up = oracles.stirling_sandwich_logs(n)
            assert lo < val < up

    def test_n_zero_rejected(self):
        with pytest.raises(errors.DomainError):
            oracles.stirling_sandwich_logs(0)


class TestGammaRatioResidual:
    def test_hand_value(self):
        # 10 * Gamma(11)/Gamma(12) - 1 + 0.1 = 10/11 - 0.9 = 1/110
        assert oracles.gamma_ratio_residual(1.0, 2.0, 10) == pytest.approx(1 / 110, abs=1e-14)

    def test_equal_parameters_exactly_zero(self):
        for a in (0.7, 1.0, 3.25):
            for N in (1, 10, 1000):
                assert oracles.gamma_ratio_residual(a, a, N) == 0.0

    def test_half_pair_closed_form(self):
        # N Gamma(N+1/2)/Gamma(N+3/2) - 1 + 1/(2N) = 1/(2N(2N+1))
        for N in (4, 8, 50, 400):
            expected = 1.0 / (2 * N * (2 * N + 1))
            assert oracles.gamma_ratio_residual(0.5, 1.5, N) == pytest.approx(expected, rel=1e-9)

    def test_half_pair_quartering(self):
        r100 = oracles.gamma_ratio_residual(0.5, 1.5, 100)
        r200 = oracles.gamma_ratio_residual(0.5, 1.5, 200)
        r400 = oracles.gamma_ratio_residual(0.5, 1.5, 400)
        assert r100 / r200 == pytest.approx(4.0, rel=0.02)
        assert r200 / r400 == pytest.approx(4.0, rel=0.02)

    def test_residual_times_nsq_bounded(self):
        # (2,1) is degenerate: the ratio equals the first-order term
        # exactly, so only float noise remains
        caps = {(2.0, 1.0): 0.01, (0.5, 1.5): 0.26, (3.0, 0.5): 2.5}
        for (a, b), cap in caps.items():
            for N in (100, 1000, 10000):
                assert abs(oracles.gamma_ratio_residual(a, b, N)) * N * N <= cap

    def test_domain_errors(self):
        with pytest.raises(errors.DomainError):
            oracles.gamma_ratio_residual(0.0, 1.0, 10)
        with pytest.raises(errors.DomainError):
            oracles.gamma_ratio_residual(1.0, 1.0, 0)
