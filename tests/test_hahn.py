import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hahn_lsq import errors, hahn

SYMMETRIC_ALPHAS = (-0.25, 0.0, 0.5, 1.0, 2.0)
GRID_SIZES = (10, 50, 200)


def test_params_validation():
    with pytest.raises(errors.ParameterError):
        hahn.HahnParams(-1.0, 0.0, 5)
    with pytest.raises(errors.ParameterError):
        hahn.HahnParams(0.0, -1.5, 5)
    with pytest.raises(errors.ParameterError):
        hahn.HahnParams(0.0, 0.0, 0)
    p = hahn.HahnParams(0.5, 0.5, 3)
    assert p.symmetric
    assert not hahn.HahnParams(0.0, 1.0, 3).symmetric


def weight_values(alpha, beta, N):
    return hahn.DiscreteWeight.from_params(hahn.HahnParams(alpha, beta, N)).values


class TestWeight:
    def test_unit_for_zero_parameters(self):
        assert np.all(weight_values(0.0, 0.0, 7) == 1.0)

    def test_integer_example(self):
        values = weight_values(1.0, 1.0, 2)
        exact = [oracles.frac_weight(i, 1, 1, 2) for i in range(3)]
        assert exact == [3, 4, 3]
        assert values == pytest.approx(exact, rel=1e-12)

    def test_half_parameter_example(self):
        values = weight_values(0.5, 0.5, 1)
        assert values[0] == pytest.approx(1.5, rel=1e-13)
        assert values[1] == pytest.approx(1.5, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_symmetry_and_positivity(self, alpha):
        p = hahn.HahnParams(alpha, alpha, 9)
        w = hahn.DiscreteWeight.from_params(p)
        assert np.all(w.values > 0)
        assert w.values == pytest.approx(w.values[::-1], rel=1e-12)

    def test_weight_vector_is_immutable(self):
        w = hahn.DiscreteWeight.from_params(hahn.HahnParams(0.0, 0.0, 3))
        with pytest.raises(ValueError):
            w.values[0] = 5.0

    @pytest.mark.parametrize("alpha,N", [(0.5, 400), (0.0133, 12960), (1.1687, 9362)])
    def test_log_values_match_multi_digit_log_binomials(self, alpha, N):
        # a per-node lgamma difference is off by up to 4e-11 at these cells
        w = hahn.DiscreteWeight.from_params(hahn.HahnParams(alpha, alpha, N))
        side = np.array(oracles.mp_log_binomials(alpha, N))
        assert np.max(np.abs(w.log_values - (side + side[::-1]))) <= 1e-12

    def test_large_alpha_overflows_values_but_not_the_scaled_weight(self):
        w = hahn.DiscreteWeight.from_params(hahn.HahnParams(150.0, 150.0, 3000))
        assert np.isinf(w.values).any()
        scaled = w.scaled()
        assert np.all(np.isfinite(scaled)) and scaled.max() == 1.0


def recurrence(n, x, params):
    """Q_n(x) from a one-point hahn_table."""
    return float(hahn.hahn_table(n, [x], params)[n, 0])


def series(n, x, params):
    """Q_n(x) from the exact-rational series, rounded once."""
    return float(oracles.frac_hahn(n, x, params.alpha, params.beta, params.N))


class TestClosedForms:
    def test_degree_zero_is_one(self):
        p = hahn.HahnParams(0.3, 1.7, 6)
        assert np.all(hahn.hahn_table(0, [-1.0, 0.0, 2.5, 6.0], p) == 1.0)

    def test_linear_closed_form(self):
        # Q_1(x; 0, 0, N) = 1 - 2x/N
        p = hahn.HahnParams(0.0, 0.0, 10)
        for x in (0.0, 2.5, 5.0, 10.0):
            assert recurrence(1, x, p) == pytest.approx(1 - 2 * x / 10, abs=1e-15)

    def test_quadratic_closed_form(self):
        # Q_2(x; 0, 0, 4) = 1 - 2x + x^2/2
        p = hahn.HahnParams(0.0, 0.0, 4)
        assert recurrence(2, 2.0, p) == -1.0
        for x in (0.0, 0.5, 1.0, 3.25, 4.0):
            assert recurrence(2, x, p) == pytest.approx(1 - 2 * x + x * x / 2, abs=1e-15)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(-0.25, -0.25), (0.0, 0.0), (0.5, 0.5), (2.0, 2.0), (0.0, 1.0), (1.5, -0.5), (3.0, 0.25)],
    )
    def test_values_at_the_ends(self, alpha, beta):
        # Q_n(0) = 1 and Q_n(N) = (-1)^n (beta+1)_n / (alpha+1)_n; the far
        # end sees both parameters through every A_k and C_k.  Degree 10 on
        # grids of at least twice that, where the recurrence loses < 1e-13
        for N in (20, 50, 200):
            p = hahn.HahnParams(alpha, beta, N)
            table = hahn.hahn_table(10, [0.0, float(N)], p)
            assert np.max(np.abs(table[:, 0] - 1.0)) <= 1e-12
            far = Fraction(1)
            for n in range(11):
                assert oracles.frac_hahn(n, N, alpha, beta, N) == far
                assert table[n, 1] == pytest.approx(float(far), rel=1e-12)
                far *= -(Fraction(beta) + 1 + n) / (Fraction(alpha) + 1 + n)

    def test_degree_above_grid_rejected(self):
        with pytest.raises(errors.DegreeError):
            hahn.hahn_table(5, [1.0], hahn.HahnParams(0.0, 0.0, 4))

    def test_range_warning(self):
        p = hahn.HahnParams(0.0, 0.0, 50)
        with pytest.warns(errors.NumericalRangeWarning):
            hahn.hahn_table(41, [1.0], p)

    def test_matches_exact_rational(self):
        for alpha, beta in ((0, 0), (1, 2)):
            p = hahn.HahnParams(float(alpha), float(beta), 12)
            for n in (1, 4, 7):
                for x in (0, 3, 12):
                    exact = oracles.frac_hahn(n, x, alpha, beta, 12)
                    assert recurrence(n, float(x), p) == pytest.approx(float(exact), rel=1e-13)

    def test_exact_variant_returns_fraction(self):
        # off the grid: Q_2(1/2; 0, 0, 4) = 1 - 1 + 1/8, exactly in binary
        assert oracles.frac_hahn(2, Fraction(1, 2), 0, 0, 4) == Fraction(1, 8)
        assert recurrence(2, 0.5, hahn.HahnParams(0.0, 0.0, 4)) == 0.125

    def test_float_parameters_are_taken_exactly(self):
        # a float alpha or beta is its exact binary value, not a float sum
        exact = oracles.frac_hahn(3, 5, Fraction(0.5), Fraction(1.25), 9)
        value = oracles.frac_hahn(3, 5, 0.5, 1.25, 9)
        assert isinstance(value, Fraction) and value == exact
        value = oracles.frac_hahn(5, 40, 1e4, 0.5, 40)
        assert isinstance(value, Fraction)
        assert value == oracles.frac_hahn(5, 40, Fraction(1e4), Fraction(0.5), 40)


class TestRecurrence:
    def test_examples(self):
        assert recurrence(0, 3.0, hahn.HahnParams(1.0, 0.5, 9)) == 1.0
        assert recurrence(1, 5.0, hahn.HahnParams(0.0, 0.0, 10)) == pytest.approx(0.0, abs=1e-15)
        assert recurrence(2, 2.0, hahn.HahnParams(0.0, 0.0, 4)) == pytest.approx(-1.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", SYMMETRIC_ALPHAS)
    @pytest.mark.parametrize("N", GRID_SIZES)
    def test_agreement_with_series(self, alpha, N):
        """Both evaluators must agree over the integer grid."""
        p = hahn.HahnParams(alpha, alpha, N)
        kmax = min(N, 30)
        xs = np.arange(0, N + 1, max(1, N // 20), dtype=float)
        table = hahn.hahn_table(kmax, xs, p)
        for n in range(0, kmax + 1, 3):
            exact = np.array([series(n, x, p) for x in xs])
            scale = max(np.max(np.abs(exact)), 1.0)
            assert np.max(np.abs(exact - table[n])) <= 1e-9 * scale

    def test_asymmetric_parameters(self):
        p = hahn.HahnParams(1.0, 0.25, 15)
        for n in (1, 5, 9):
            for x in (0.0, 4.0, 15.0):
                rec = recurrence(n, x, p)
                assert rec == pytest.approx(series(n, x, p), rel=1e-10, abs=1e-12)

    def test_table_shape(self):
        p = hahn.HahnParams(0.0, 0.0, 6)
        table = hahn.hahn_table(3, np.arange(7.0), p)
        assert table.shape == (4, 7)
        assert np.all(table[0] == 1.0)

    def test_points_of_more_than_one_dimension_rejected(self):
        p = hahn.HahnParams(0.0, 0.0, 4)
        with pytest.raises(errors.ParameterError, match=r"shape \(2, 2\)"):
            hahn.hahn_table(2, [[0.0, 1.0], [2.0, 3.0]], p)


@pytest.mark.parametrize("alpha", SYMMETRIC_ALPHAS)
def test_reflection_symmetry(alpha):
    # Q_n(N - x) = (-1)^n Q_n(x) for the symmetric weight
    N = 12
    p = hahn.HahnParams(alpha, alpha, N)
    table = hahn.hahn_table(8, np.arange(N + 1, dtype=float), p)
    for n in range(9):
        assert table[n, ::-1] == pytest.approx((-1.0) ** n * table[n], abs=1e-10)


class TestNorm:
    def test_constant_norm_is_grid_size(self):
        for N in (2, 9, 40):
            p = hahn.HahnParams(0.0, 0.0, N)
            assert hahn.hahn_norm_sq(0, p) == pytest.approx(N + 1, rel=1e-13)

    def test_linear_norm_small_grid(self):
        assert hahn.hahn_norm_sq(1, hahn.HahnParams(0.0, 0.0, 2)) == pytest.approx(2.0, rel=1e-13)

    def test_closed_form_equals_brute_sum_exact(self):
        for alpha in (0, 1, 2):
            p = hahn.HahnParams(float(alpha), float(alpha), 12)
            for k in range(7):
                closed = oracles.frac_norm_closed(k, alpha, alpha, 12)
                brute = oracles.frac_norm_brute(k, alpha, alpha, 12)
                assert closed == brute
                assert hahn.hahn_norm_sq(k, p) == pytest.approx(float(closed), rel=1e-13)

    @pytest.mark.parametrize("alpha", SYMMETRIC_ALPHAS)
    def test_closed_form_equals_brute_sum_float(self, alpha):
        N = 20
        p = hahn.HahnParams(alpha, alpha, N)
        w = hahn.DiscreteWeight.from_params(p)
        table = hahn.hahn_table(10, np.arange(N + 1, dtype=float), p)
        for k in range(11):
            brute = oracles.inner_product(table[k], table[k], w)
            assert hahn.hahn_norm_sq(k, p) == pytest.approx(brute, rel=1e-9)

    def test_degree_above_grid_rejected(self):
        with pytest.raises(errors.DegreeError):
            hahn.hahn_norm_sq(5, hahn.HahnParams(0.0, 0.0, 4))

    def test_constant_norm_on_a_large_grid(self):
        # exp of an lgamma difference of size N log N is off by 1.2e-7 here
        assert hahn.hahn_norm_sq(0, hahn.HahnParams(0.0, 0.0, 12960)) == pytest.approx(
            12961.0, rel=1e-14
        )

    @pytest.mark.parametrize("alpha,beta", [(-0.5, -0.5), (-0.5, 2.0), (1.5, -0.25), (3.0, 0.0)])
    def test_norms_equal_exact_brute_sum(self, alpha, beta):
        # at alpha + beta = -1 the closed form divides 0/0, while h_0 = C(N, N) = 1
        p = hahn.HahnParams(alpha, beta, 10)
        for k in range(11):
            brute = oracles.frac_norm_brute(k, Fraction(alpha), Fraction(beta), 10)
            assert hahn.hahn_norm_sq(k, p) == pytest.approx(float(brute), rel=1e-13)

    def test_overflowing_norm_is_an_instability(self):
        with pytest.raises(errors.InstabilityError, match="overflows"):
            hahn.hahn_norm_sq(0, hahn.HahnParams(150.0, 150.0, 3000))


class TestInnerProduct:
    def test_orthogonality_of_first_two(self):
        p = hahn.HahnParams(0.5, 0.5, 8)
        w = hahn.DiscreteWeight.from_params(p)
        table = hahn.hahn_table(1, np.arange(9.0), p)
        scale = math.sqrt(hahn.hahn_norm_sq(0, p) * hahn.hahn_norm_sq(1, p))
        assert abs(oracles.inner_product(table[0], table[1], w)) <= 1e-12 * scale

    def test_all_ones_gives_grid_size(self):
        p = hahn.HahnParams(0.0, 0.0, 5)
        w = hahn.DiscreteWeight.from_params(p)
        ones = np.ones(6)
        assert oracles.inner_product(ones, ones, w) == 6.0

    def test_length_mismatch(self):
        p = hahn.HahnParams(0.0, 0.0, 5)
        w = hahn.DiscreteWeight.from_params(p)
        with pytest.raises(errors.LengthMismatchError):
            oracles.inner_product(np.ones(5), np.ones(6), w)


class TestEndpointMaxCheck:
    def test_examples(self):
        assert oracles.endpoint_max_check(2, 0.0, 4)
        assert oracles.endpoint_max_check(0, 1.0, 12)
        assert oracles.endpoint_max_check(1, 0.0, 10)

    def test_above_threshold_rejected(self):
        with pytest.raises(errors.ThresholdError):
            oracles.endpoint_max_check(3, 0.0, 4)


def test_validated_range_warning_mentions_limits():
    p = hahn.HahnParams(0.0, 0.0, 11000)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hahn.hahn_table(2, np.array([0.0]), p)
    assert any("validated" in str(w.message) for w in caught)
