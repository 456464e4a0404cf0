import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hahn_lsq import errors, hahn, jacobi, specfun


def test_params_validation():
    with pytest.raises(errors.ParameterError):
        jacobi.JacobiParams(-1.0, 0.0)
    with pytest.raises(errors.ParameterError):
        jacobi.JacobiParams(0.0, -2.0)
    p = jacobi.JacobiParams(0.5, 0.5)
    assert p.alpha == p.beta == 0.5


class TestJacobiEval:
    def test_degree_zero(self):
        p = jacobi.JacobiParams(0.7, 1.3)
        for x in (-1.0, 0.0, 0.4, 1.0):
            assert jacobi.jacobi_eval(0, x, p) == 1.0

    def test_legendre_low_degrees(self):
        p = jacobi.JacobiParams(0.0, 0.0)
        for x in np.linspace(-1, 1, 9):
            assert jacobi.jacobi_eval(1, x, p) == pytest.approx(x, abs=1e-15)
            assert jacobi.jacobi_eval(2, x, p) == pytest.approx(
                (3 * x * x - 1) / 2, abs=1e-14
            )

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.5])
    def test_value_at_one(self, alpha):
        # P_n(1) = (alpha+1)_n / n!
        p = jacobi.JacobiParams(alpha, alpha)
        for n in range(31):
            expected = specfun.pochhammer(alpha + 1, n) / math.factorial(n)
            assert jacobi.jacobi_eval(n, 1.0, p) == pytest.approx(expected, rel=1e-12)

    def test_negative_degree_rejected(self):
        with pytest.raises(errors.DomainError):
            jacobi.jacobi_eval(-1, 0.0, jacobi.JacobiParams(0.0, 0.0))

    def test_vectorized_matches_scalar(self):
        p = jacobi.JacobiParams(1.0, 0.5)
        xs = np.linspace(-1, 1, 7)
        vals = jacobi.jacobi_eval(4, xs, p)
        assert vals.shape == (7,)
        for x, v in zip(xs, vals):
            assert v == jacobi.jacobi_eval(4, float(x), p)


class TestOrthogonality:
    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_integer_weight_via_gauss_legendre(self, a):
        """Pairwise inner products against a quadrature that is exact here:
        the weight (1-x^2)^a is itself a polynomial, so the full integrand
        of degree j+k+2a is handled by a Legendre rule of enough points."""
        p = jacobi.JacobiParams(float(a), float(a))
        for k in range(11):
            for j in range(k + 1):
                integrand_deg = j + k + 2 * a

                def f(x, j=j):
                    return jacobi.jacobi_eval(j, x, p) * (1 - x * x) ** a

                def g(x, k=k):
                    return jacobi.jacobi_eval(k, x, p)

                # tolerance floor: the evaluator's alternating series loses
                # ~1e-10 near the endpoints at degree 10
                value = oracles.gauss_legendre_inner(f, g, integrand_deg)
                if j == k:
                    assert value == pytest.approx(jacobi.jacobi_norm_sq(k, p), rel=1e-9)
                else:
                    scale = math.sqrt(
                        jacobi.jacobi_norm_sq(j, p) * jacobi.jacobi_norm_sq(k, p)
                    )
                    assert abs(value) <= 1e-9 * scale

    def test_half_weight_via_chebyshev(self):
        # alpha = beta = 1/2 is the second-kind Chebyshev weight
        p = jacobi.JacobiParams(0.5, 0.5)
        for k in range(9):
            for j in range(k + 1):
                value = oracles.chebyshev2_inner(
                    lambda x, j=j: jacobi.jacobi_eval(j, x, p),
                    lambda x, k=k: jacobi.jacobi_eval(k, x, p),
                )
                if j == k:
                    assert value == pytest.approx(jacobi.jacobi_norm_sq(k, p), rel=5e-12)
                else:
                    assert abs(value) <= 5e-12


class TestNormSq:
    def test_degree_zero_legendre(self):
        assert jacobi.jacobi_norm_sq(0, jacobi.JacobiParams(0.0, 0.0)) == pytest.approx(
            2.0, rel=1e-14
        )

    def test_legendre_closed_form(self):
        p = jacobi.JacobiParams(0.0, 0.0)
        for n in range(20):
            assert jacobi.jacobi_norm_sq(n, p) == pytest.approx(2 / (2 * n + 1), rel=1e-14)

    def test_positive_for_fractional_parameters(self):
        p = jacobi.JacobiParams(0.5, 0.5)
        values = [jacobi.jacobi_norm_sq(n, p) for n in range(10)]
        assert all(v > 0 for v in values)
        # pi/2 is the total mass of the (1-x^2)^(1/2) weight
        assert values[0] == pytest.approx(math.pi / 2, rel=1e-14)


class TestSup:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_matches_dense_grid_max(self, alpha):
        p = jacobi.JacobiParams(alpha, alpha)
        xs = np.linspace(-1, 1, 100001)
        for n in (0, 1, 3, 6, 10):
            dense = float(np.max(np.abs(jacobi.jacobi_eval(n, xs, p))))
            assert jacobi.jacobi_sup(n, p) == pytest.approx(dense, rel=1e-8)

    def test_value_is_endpoint_binomial(self):
        assert jacobi.jacobi_sup(4, jacobi.JacobiParams(0.0, 0.0)) == 1.0
        assert jacobi.jacobi_sup(1, jacobi.JacobiParams(0.5, 0.5)) == pytest.approx(
            1.5, rel=1e-13
        )

    def test_small_parameter_rejected(self):
        with pytest.raises(errors.ParameterError):
            jacobi.jacobi_sup(3, jacobi.JacobiParams(-0.75, -0.75))


class TestContinuousConstant:
    def test_degree_one_legendre(self):
        assert jacobi.continuous_constant(1, 0.0) == pytest.approx(1 / 3, rel=1e-13)

    def test_legendre_rational_form(self):
        # C_n(0) = 2^(n+1) (n+1)! / (2n+2)!
        for n in range(16):
            expected = Fraction(2 ** (n + 1) * math.factorial(n + 1), math.factorial(2 * n + 2))
            assert jacobi.continuous_constant(n, 0.0) == pytest.approx(
                float(expected), rel=1e-13
            )

    def test_decreasing_in_degree(self):
        for alpha in (0.0, 0.5, 1.0):
            vals = [jacobi.continuous_constant(n, alpha) for n in range(12)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_underflow_raises(self):
        assert jacobi.continuous_constant(149, 0.5) == pytest.approx(1.8517578e-306, rel=1e-7)
        with pytest.raises(errors.InstabilityError, match="C_150 at alpha=0.5"):
            jacobi.continuous_constant(150, 0.5)
        with pytest.raises(errors.InstabilityError):
            jacobi.continuous_constant(400, 0.0)

    def test_parameter_domain(self):
        with pytest.raises(errors.ParameterError):
            jacobi.continuous_constant(2, -0.6)
        with pytest.raises(errors.DomainError):
            jacobi.continuous_constant(-1, 0.0)


class TestDiscreteToContinuousLimit:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rescaled_hahn_approaches_jacobi(self, alpha, n):
        """(-1)^n binom(n+alpha, n) Q_n(N(1+x)/2) -> P_n(x) as the grid refines.

        Points where the limit is exactly zero sit at rounding noise for
        every N and need not shrink further; elsewhere the gap drops by
        about the same factor as 1/N.
        """
        jp = jacobi.JacobiParams(alpha, alpha)
        front = (-1.0) ** n * specfun.gen_binomial(alpha, n)
        for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
            target = jacobi.jacobi_eval(n, x, jp)
            gaps = []
            for N in (100, 1000, 10000):
                hp = hahn.HahnParams(alpha, alpha, N)
                value = front * hahn.hahn_eval(n, N * (1 + x) / 2, hp)
                gaps.append(abs(value - target))
            for wide, fine in zip(gaps, gaps[1:]):
                if wide > 1e-13:
                    assert fine < wide
                else:
                    assert fine <= 1e-13
