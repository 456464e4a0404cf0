"""The closed-form oracles of criteria 05 and 06 in tests/oracles.py."""

import math
from fractions import Fraction

import pytest

import oracles
from hahn_lsq import errors


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
        with pytest.raises(errors.ParameterError, match="requires n >= 1"):
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
        with pytest.raises(errors.ParameterError, match="requires a, b > 0"):
            oracles.gamma_ratio_residual(0.0, 1.0, 10)
        with pytest.raises(errors.ParameterError, match="requires N >= 1"):
            oracles.gamma_ratio_residual(1.0, 1.0, 0)
