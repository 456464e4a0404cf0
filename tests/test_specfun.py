import math
from fractions import Fraction

import pytest

from hahn_lsq import errors, specfun


class TestPochhammer:
    @pytest.mark.parametrize(
        "a,k,expected",
        [(3, 0, 1), (3, 2, 12), (1, 5, 120), (0, 3, 0), (-2, 2, 2), (-2, 4, 0)],
    )
    def test_integer_values(self, a, k, expected):
        assert specfun.pochhammer(a, k) == expected

    def test_fraction_values(self):
        # (1/2)_3 = (1/2)(3/2)(5/2)
        assert specfun.pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)

    def test_float_matches_fraction(self):
        assert specfun.pochhammer(0.5, 4) == pytest.approx(
            float(specfun.pochhammer(Fraction(1, 2), 4)), rel=1e-14
        )

    def test_recurrence_property(self):
        for a in (Fraction(-3, 4), Fraction(2), Fraction(7, 3)):
            for k in range(8):
                assert specfun.pochhammer(a, k + 1) == specfun.pochhammer(a, k) * (a + k)

    def test_negative_k_rejected(self):
        with pytest.raises(errors.DomainError):
            specfun.pochhammer(1.0, -1)


class TestLogGamma:
    def test_matches_platform_lgamma(self):
        for x in (0.5, 1.0, 2.75, 41.0, 1e5):
            assert specfun.log_gamma(x) == math.lgamma(x)

    def test_half_integer_value(self):
        assert specfun.log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_nonpositive_rejected(self, x):
        with pytest.raises(errors.DomainError):
            specfun.log_gamma(x)


class TestGenBinomial:
    def test_zero_alpha_is_exactly_one(self):
        for k in (0, 1, 5, 100, 2000):
            assert specfun.gen_binomial(0.0, k) == 1.0

    def test_k_zero_is_exactly_one(self):
        assert specfun.gen_binomial(2.7, 0) == 1.0

    @pytest.mark.parametrize("a", [0, 1, 2, 5, 11])
    def test_matches_integer_binomial(self, a):
        for k in range(31):
            assert specfun.gen_binomial(float(a), k) == pytest.approx(
                math.comb(a + k, k), rel=1e-12
            )

    def test_half_integer_value(self):
        assert specfun.gen_binomial(0.5, 1) == pytest.approx(1.5, rel=1e-14)
        assert specfun.gen_binomial(1.0, 2) == pytest.approx(3.0, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(errors.DomainError):
            specfun.gen_binomial(-1.0, 2)
        with pytest.raises(errors.DomainError):
            specfun.gen_binomial(0.5, -1)


class TestStirlingSandwich:
    def test_value_at_one(self):
        lower, value, upper = specfun.stirling_sandwich(1)
        assert value == pytest.approx(1.0, rel=1e-14)
        # direct evaluation of the two exponential factors
        front = math.sqrt(math.pi) / 2.0
        assert lower == pytest.approx(front * math.exp(2 / 13 - 1 / 24), rel=1e-13)
        assert upper == pytest.approx(front * math.exp(1 / 6 - 1 / 25), rel=1e-13)
        assert lower <= 1.0 <= upper

    def test_value_matches_exact_rational(self):
        for n in (1, 2, 5, 20, 60):
            exact = Fraction(2**n * math.factorial(n), math.factorial(2 * n))
            _, value, _ = specfun.stirling_sandwich(n)
            assert value == pytest.approx(float(exact), rel=1e-13)

    def test_ordering_small_n(self):
        for n in range(1, 141):
            lower, value, upper = specfun.stirling_sandwich(n)
            assert lower < value < upper

    def test_logs_ordering_full_range(self):
        # past n ~ 150 the plain triple underflows; the log form keeps
        # the three quantities distinguishable
        for n in range(1, 501):
            lo, val, up = specfun.stirling_sandwich_logs(n)
            assert lo < val < up

    def test_logs_consistent_with_plain(self):
        lo, val, up = specfun.stirling_sandwich_logs(30)
        plain = specfun.stirling_sandwich(30)
        assert plain == (math.exp(lo), math.exp(val), math.exp(up))

    def test_n_zero_rejected(self):
        with pytest.raises(errors.DomainError):
            specfun.stirling_sandwich(0)


class TestGammaRatioResidual:
    def test_hand_value(self):
        # 10 * Gamma(11)/Gamma(12) - 1 + 0.1 = 10/11 - 0.9 = 1/110
        assert specfun.gamma_ratio_residual(1.0, 2.0, 10) == pytest.approx(1 / 110, abs=1e-14)

    def test_equal_parameters_exactly_zero(self):
        for a in (0.7, 1.0, 3.25):
            for N in (1, 10, 1000):
                assert specfun.gamma_ratio_residual(a, a, N) == 0.0

    def test_half_pair_closed_form(self):
        # N Gamma(N+1/2)/Gamma(N+3/2) - 1 + 1/(2N) = 1/(2N(2N+1))
        for N in (4, 8, 50, 400):
            expected = 1.0 / (2 * N * (2 * N + 1))
            assert specfun.gamma_ratio_residual(0.5, 1.5, N) == pytest.approx(expected, rel=1e-9)

    def test_half_pair_quartering(self):
        r100 = specfun.gamma_ratio_residual(0.5, 1.5, 100)
        r200 = specfun.gamma_ratio_residual(0.5, 1.5, 200)
        r400 = specfun.gamma_ratio_residual(0.5, 1.5, 400)
        assert r100 / r200 == pytest.approx(4.0, rel=0.02)
        assert r200 / r400 == pytest.approx(4.0, rel=0.02)

    def test_residual_times_nsq_bounded(self):
        # (2,1) is degenerate: the ratio equals the first-order term
        # exactly, so only float noise remains
        caps = {(2.0, 1.0): 0.01, (0.5, 1.5): 0.26, (3.0, 0.5): 2.5}
        for (a, b), cap in caps.items():
            for N in (100, 1000, 10000):
                assert abs(specfun.gamma_ratio_residual(a, b, N)) * N * N <= cap

    def test_domain_errors(self):
        with pytest.raises(errors.DomainError):
            specfun.gamma_ratio_residual(0.0, 1.0, 10)
        with pytest.raises(errors.DomainError):
            specfun.gamma_ratio_residual(1.0, 1.0, 0)
