import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hahn_lsq import bounds, errors, jacobi


class TestDegreeThreshold:
    def test_integer_valued_cases(self):
        assert bounds.degree_threshold(0.0, 4) == 2.0
        assert bounds.degree_threshold(0.5, 15) == 4.0
        assert bounds.degree_threshold(1.0, 12) == 4.0

    def test_irrational_cases(self):
        assert bounds.degree_threshold(0.0, 2) == pytest.approx(
            0.5 + 0.5 * math.sqrt(5), rel=1e-14
        )
        assert bounds.degree_threshold(0.5, 12) == pytest.approx(
            0.5 * math.sqrt(52), rel=1e-14
        )

    def test_grows_with_grid(self):
        prev = bounds.degree_threshold(0.5, 4)
        for N in (8, 16, 64, 256, 1024):
            cur = bounds.degree_threshold(0.5, N)
            assert cur > prev
            prev = cur

    @pytest.mark.parametrize("alpha", [10.0**k for k in range(15, 301, 15)])
    def test_no_cancellation_at_large_alpha(self, alpha):
        # n(alpha, 10) -> 6 as alpha grows; the sqrt-difference form gave
        # 4.0 at 1e16, 0.0 at 1e20 and inf past 1e154
        assert bounds.degree_threshold(alpha, 10) == pytest.approx(6.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", [-0.4, -0.25, 0.0, 0.1, 1 / 3, 0.5, 2.0, 60.0, 1e4, 1e8])
    def test_matches_fifty_digits(self, alpha):
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            for n in range(0, 141, 7):
                N = bounds.min_nodes(n, alpha)[0]
                exact = 0.5 - a + mpmath.sqrt((2 * a + 1) * (2 * a + 2 * N + 1)) / 2
                assert bounds.degree_threshold(alpha, N) == pytest.approx(float(exact), rel=1e-15)

    def test_parameter_domain(self):
        with pytest.raises(errors.ParameterError):
            bounds.degree_threshold(-0.5, 10)
        with pytest.raises(errors.ParameterError):
            bounds.degree_threshold(0.0, 0)


class TestHypothesis:
    def test_boundary_is_admissible(self):
        # n + 1 equal to the threshold still counts
        assert bounds.bound_report(1, 4, 0.0).hypothesis_ok
        assert not bounds.bound_report(2, 4, 0.0).hypothesis_ok

    def test_small_degree_always_admissible(self):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            for N in range(2, 30):
                assert bounds.bound_report(0, N, alpha).hypothesis_ok == (
                    1.0 <= bounds.degree_threshold(alpha, N)
                )

    @pytest.mark.parametrize("alpha", [-0.4, 0.1, 0.3, 1 / 3, 0.7, 60.0])
    def test_exact_at_the_c3_boundary(self, alpha):
        # the float comparison n+1 <= degree_threshold(alpha, N) erred on
        # both sides of c3 (0.1 at n = 18 refused N = c3, 0.3 at n = 2
        # admitted N = 9 < c3 = 10)
        for n in range(0, 141):
            c3 = bounds.min_nodes(n, alpha)[0]
            for N in {max(c3 - 1, 1), c3, c3 + 1}:
                report = bounds.bound_report(n, N, alpha)
                assert report.hypothesis_ok == (N >= report.node_min_c3)
                assert report.hypothesis_ok == oracles.frac_degree_hypothesis(n, N, alpha)
                assert report.hypothesis_ok == (report.D is not None)
                if report.hypothesis_ok:
                    assert bounds.worst_case_constant(n, N, alpha) == report.D
                else:
                    with pytest.raises(errors.ThresholdError, match=f"N={N} < c3={c3}"):
                        bounds.worst_case_constant(n, N, alpha)


class TestWorstCaseConstant:
    def test_degree_zero_near_one(self):
        for N in (4, 100, 10**4):
            assert bounds.worst_case_constant(0, N, 0.0) == pytest.approx(1.0, rel=0.5)

    def test_degree_one_small_grid(self):
        assert bounds.worst_case_constant(1, 4, 0.0) == 0.25

    def test_large_grid_approaches_continuous(self):
        # C_1 = 1/3 for the flat weight
        value = bounds.worst_case_constant(1, 10**6, 0.0)
        assert value == pytest.approx(1 / 3, abs=1e-6)
        assert value < 1 / 3

    def test_increasing_in_grid_size(self):
        for alpha in (0.0, 1.0):
            prev = None
            for N in (40, 80, 160, 320):
                cur = bounds.worst_case_constant(3, N, alpha)
                if prev is not None:
                    assert cur > prev
                prev = cur

    def test_threshold_enforced(self):
        with pytest.raises(errors.ThresholdError):
            bounds.worst_case_constant(2, 4, 0.0)

    def test_threshold_is_checked_before_the_grid_size(self):
        # n(alpha, N) < N + 1 always, so n + 1 > N also violates the hypothesis
        with pytest.raises(errors.ThresholdError):
            bounds.worst_case_constant(5, 3, 0.0)

    def test_threshold_is_checked_before_the_continuous_constant(self):
        # C_8 cancels at alpha = 1e5, but N = 10 < c3 = 17 already fails
        # the hypothesis, so the caller sees the threshold, not C_8
        with pytest.raises(errors.InstabilityError):
            jacobi.continuous_constant(8, 1e5)
        with pytest.raises(errors.ThresholdError, match="N=10 < c3=17"):
            bounds.worst_case_constant(8, 10, 1e5)

    def test_numpy_grid_size(self):
        # N den exceeds int64 at alpha = 0.1 (den = 2p + q is about 4.3e16)
        exact = bounds.worst_case_constant(18, 576, 0.1)
        assert bounds.worst_case_constant(18, np.int64(576), 0.1) == exact
        assert bounds.constants_row(18, np.int64(576), 0.1)[1] == exact
        assert bounds.constants_row(18, np.int64(575), 0.1)[1] is None
        with pytest.raises(errors.ThresholdError, match="N=575 < c3=576"):
            bounds.worst_case_constant(18, np.int64(575), 0.1)

    def test_underflow_raises(self):
        # C_151(3) = 3.0e-308 is normal; on the c3 grid the grid factor
        # 0.18 takes D below the smallest normal double
        N = bounds.min_nodes(151, 3.0)[0]
        assert jacobi.continuous_constant(151, 3.0) >= sys.float_info.min
        assert 152 <= bounds.degree_threshold(3.0, N)
        with pytest.raises(errors.InstabilityError, match=f"D_151,{N} at alpha=3.0"):
            bounds.worst_case_constant(151, N, 3.0)
        assert bounds.worst_case_constant(151, 2 * 151 * 152, 3.0) >= sys.float_info.min


class TestSimplifiedConstant:
    def test_frozen_formulas(self):
        # alpha = 0, n = 10: sqrt(10 pi) / (2^11 11!)
        expected = math.sqrt(10 * math.pi) / (2**11 * math.factorial(11))
        assert bounds.simplified_constant(10, 0.0) == pytest.approx(expected, rel=1e-12)
        # alpha = 1, n = 20: sqrt(20 pi) * 20 / (2^21 21! * 4)
        expected = math.sqrt(20 * math.pi) * 20 / (2**21 * math.factorial(21) * 4)
        assert bounds.simplified_constant(20, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_degree_zero_rejected(self):
        with pytest.raises(errors.ParameterError, match="simplified constant needs n >= 1"):
            bounds.simplified_constant(0, 0.0)

    def test_alpha_domain(self):
        with pytest.raises(errors.ParameterError, match="defined for alpha > -1/2, got -0.6"):
            bounds.simplified_constant(3, -0.6)

    def test_underflow_raises(self):
        assert bounds.simplified_constant(149, 0.5) >= sys.float_info.min
        with pytest.raises(errors.InstabilityError, match="simplified constant"):
            bounds.simplified_constant(150, 0.5)

    def test_tracks_constant_on_quadratic_grids(self):
        """On N = 2n(n+1) the full constant stays within a factor 2."""
        for n in range(5, 31):
            N = 2 * n * (n + 1)
            ratio = bounds.worst_case_constant(n, N, 0.0) / bounds.simplified_constant(n, 0.0)
            assert 0.5 <= ratio <= 2.0

    @pytest.mark.parametrize(
        "alpha,cap", [(0.0, 0.6), (0.5, 2.0), (1.0, 4.5), (2.0, 15.0)]
    )
    def test_first_order_gap_on_cubic_grids(self, alpha, cap):
        # |D/s - 1| decays like K/n once N = 10 n^3 suppresses the grid factor
        for n in range(10, 41):
            N = 10 * n**3
            gap = abs(
                bounds.worst_case_constant(n, N, alpha) / bounds.simplified_constant(n, alpha)
                - 1.0
            )
            assert gap * n <= cap


class TestRatio:
    def test_degree_zero_is_one(self):
        for N in (1, 7, 300):
            assert bounds.ratio_discrete_continuous(0, N) == 1.0

    def test_small_cases(self):
        assert bounds.ratio_discrete_continuous(1, 4) == 0.75
        assert bounds.ratio_discrete_continuous(3, 24) == pytest.approx(
            float(Fraction(1771, 2304)), rel=1e-15
        )

    def test_matches_exact_product(self):
        for n in (1, 2, 5, 10):
            for N in (n + 1, 4 * n, 100):
                expected = Fraction(1)
                for i in range(n + 1):
                    expected *= Fraction(N - i, N)
                assert bounds.ratio_discrete_continuous(n, N) == pytest.approx(
                    float(expected), rel=1e-13
                )

    def test_requires_enough_nodes(self):
        with pytest.raises(errors.ParameterError, match="grid factor needs n\\+1 <= N"):
            bounds.ratio_discrete_continuous(4, 4)

    def test_negative_degree_rejected(self):
        with pytest.raises(errors.ParameterError, match="degree must be >= 0, got -1"):
            bounds.ratio_discrete_continuous(-1, 5)


class TestFactorization:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_discrete_splits_into_continuous_times_ratio(self, alpha):
        for n in range(0, 21):
            for N in (2 * n * (n + 1), 10 * n * n):
                if N < n + 1 or n + 1 > bounds.degree_threshold(alpha, N):
                    continue
                left = bounds.worst_case_constant(n, N, alpha)
                right = jacobi.continuous_constant(n, alpha) * bounds.ratio_discrete_continuous(
                    n, N
                )
                assert left == right


class TestConstantsRow:
    def test_admissible_cell(self):
        threshold, D, C, ratio = bounds.constants_row(1, 4, 0.0)
        assert threshold == bounds.degree_threshold(0.0, 4)
        assert (D, C, ratio) == (0.25, jacobi.continuous_constant(1, 0.0), 0.75)

    def test_no_constant_past_the_threshold(self):
        threshold, D, C, ratio = bounds.constants_row(6, 10, 0.0)
        assert 7 > threshold
        assert D is None
        assert ratio == bounds.ratio_discrete_continuous(6, 10)
        assert C == jacobi.continuous_constant(6, 0.0)

    def test_no_ratio_past_the_grid(self):
        _, D, C, ratio = bounds.constants_row(5, 2, 0.0)
        assert D is None and ratio is None
        assert C == jacobi.continuous_constant(5, 0.0)

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 3.0])
    def test_agrees_with_worst_case_constant(self, alpha):
        for n in range(0, 30):
            N = bounds.min_nodes(n, alpha)[0]
            assert bounds.constants_row(n, N, alpha)[1] == bounds.worst_case_constant(n, N, alpha)


class TestMinNodes:
    def test_examples(self):
        assert bounds.min_nodes(3, 0.0) == (24, 24)
        assert bounds.min_nodes(3, 1.0) == (12, 24)

    def test_negative_degree_rejected(self):
        with pytest.raises(errors.ParameterError, match="degree must be >= 0, got -1"):
            bounds.min_nodes(-1, 0.0)

    def test_quadratic_rule_sits_on_boundary(self):
        # the smaller rule admits degree 3 at alpha = 1/2 with no slack
        quad, _ = bounds.min_nodes(3, 0.5)
        assert quad == 15
        assert bounds.degree_threshold(0.5, 15) == 4.0

    def test_returned_counts_admit_the_degree(self):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            for n in range(1, 12):
                for N in bounds.min_nodes(n, alpha):
                    assert bounds.degree_threshold(alpha, N) >= n + 1

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 10**4),
        st.floats(-0.5, allow_nan=False, allow_infinity=False, exclude_min=True),
    )
    @example(n=3, alpha=1 / 3)
    @example(n=7, alpha=1e-300)
    @example(n=7, alpha=1e300)
    @example(n=10**4, alpha=-0.49999999999999994)
    def test_integer_ceiling_matches_exact_rational(self, n, alpha):
        c3, _ = bounds.min_nodes(n, alpha)
        assert c3 == max(oracles.frac_min_nodes_c3(n, alpha), 1)

    def test_tight_rule_is_minimal(self):
        # only the ceiling-based count claims minimality; the quadratic
        # rule 2n(n+1) trades slack for a closed form
        for alpha in (0.0, 0.5, 1.0, 2.0):
            for n in range(1, 10):
                tight, _ = bounds.min_nodes(n, alpha)
                if tight > 1:
                    assert bounds.degree_threshold(alpha, tight - 1) < n + 1

    @pytest.mark.parametrize("name", ["constants_row", "worst_case_constant", "bound_report"])
    @pytest.mark.parametrize("n,N", [(0, 1), (3, 15), (3, 14), (6, 10), (20, 840), (20, 8000)])
    def test_called_once_per_cell(self, name, n, N, monkeypatch):
        # a cell takes c3 (and c4) from one min_nodes call, whichever
        # entry point builds it
        calls = []
        real = bounds.min_nodes

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(bounds, "min_nodes", counting)
        try:
            getattr(bounds, name)(n, N, 0.5)
        except errors.ThresholdError:
            assert name == "worst_case_constant"
        assert calls == [(n, 0.5)]


class TestBoundReport:
    def test_fields_for_admissible_degree(self):
        report = bounds.bound_report(3, 40, 0.5)
        assert (report.n, report.N, report.alpha) == (3, 40, 0.5)
        assert report.hypothesis_ok
        assert report.D is not None
        assert report.C > 0
        assert report.ratio == pytest.approx(report.D / report.C, rel=1e-12)
        assert 0 < report.ratio <= 1
        assert report.node_min_c3 <= 40
        assert report.threshold == bounds.degree_threshold(0.5, 40)

    def test_constant_absent_when_hypothesis_fails(self):
        report = bounds.bound_report(6, 10, 0.0)
        assert not report.hypothesis_ok
        assert report.D is None
        assert report.C > 0
        assert report.ratio == bounds.ratio_discrete_continuous(6, 10)

    def test_simplified_absent_at_degree_zero(self):
        report = bounds.bound_report(0, 12, 0.0)
        assert report.simplified is None
        assert report.D is not None
