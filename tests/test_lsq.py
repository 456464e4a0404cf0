import dataclasses
import importlib.util
import math
import pathlib
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import oracles
from hahn_lsq import bounds, cli, errors, hahn, lsq, registry


def _poly_samples_exact(mono, N):
    """Fraction samples of a monomial-coefficient polynomial on the grid."""
    return oracles.frac_monomial_to_grid([Fraction(c) for c in mono], N)


def test_grid_points_small():
    pts = lsq.grid_points(4)
    assert pts.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert pts[0] == -1.0 and pts[-1] == 1.0


def test_grid_points_endpoints_exact_for_awkward_sizes():
    for N in (3, 7, 100, 997):
        pts = lsq.grid_points(N)
        assert pts[0] == -1.0
        assert pts[-1] == 1.0
        assert len(pts) == N + 1


class TestApproximant:
    def test_degree_out_of_range(self):
        p = hahn.HahnParams(0.0, 0.0, 4)
        with pytest.raises(errors.ParameterError, match="approximant degree must satisfy"):
            lsq.Approximant(p, 5, (0.0,) * 6)

    def test_coefficient_count_mismatch(self):
        p = hahn.HahnParams(0.0, 0.0, 4)
        with pytest.raises(errors.ParameterError):
            lsq.Approximant(p, 2, (1.0, 2.0))

    def test_non_finite_coefficients(self):
        p = hahn.HahnParams(0.0, 0.0, 4)
        with pytest.raises(errors.InstabilityError):
            lsq.Approximant(p, 1, (1.0, math.nan))


class TestFitHahn:
    def test_constant_function(self):
        p = hahn.HahnParams(0.0, 0.0, 12)
        a = lsq.fit_hahn(registry.resolve("const1"), 3, p)
        assert a.coefficients[0] == pytest.approx(1.0, abs=1e-14)
        for c in a.coefficients[1:]:
            assert abs(c) <= 1e-14

    def test_linear_reproduction_minimal_grid(self):
        p = hahn.HahnParams(0.0, 0.0, 2)
        a = lsq.fit_hahn(registry.resolve("linear"), 1, p)
        # t = -Q_1(N(1+t)/2) on this normalization
        assert a.coefficients[0] == pytest.approx(0.0, abs=1e-15)
        assert a.coefficients[1] == pytest.approx(-1.0, rel=1e-14)

    def test_witness_projects_to_zero(self):
        p = hahn.HahnParams(0.0, 0.0, 4)
        witness = lsq.extremal_function(1, p)
        a = lsq.fit_hahn(witness, 1, p)
        assert abs(a.coefficients[0]) <= 1e-15
        assert abs(a.coefficients[1]) <= 1e-15

    @pytest.mark.parametrize("alpha", [0, 1])
    def test_matches_exact_projection(self, alpha):
        rng = np.random.default_rng(20240811 + alpha)
        for n, N in ((2, 6), (4, 10), (6, 12)):
            mono = [Fraction(int(v), 8) for v in rng.integers(-40, 40, size=n + 1)]
            f = registry.polynomial_function([float(c) for c in mono])
            got = lsq.fit_hahn(f, n, hahn.HahnParams(float(alpha), float(alpha), N))
            samples = _poly_samples_exact(mono, N)
            want = oracles.frac_fit_hahn(samples, n, alpha, alpha, N)
            for g, w in zip(got.coefficients, want):
                if w == 0:
                    assert abs(g) <= 1e-13
                else:
                    assert g == pytest.approx(float(w), rel=1e-12)

    def test_non_finite_samples_are_rejected_without_warnings(self):
        pole = lsq.FunctionSpec("pole", lambda t: 1.0 / (1.0 - t))  # inf at t = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.InstabilityError, match="non-finite samples of pole"):
                lsq.fit_hahn(pole, 2, hahn.HahnParams(0.0, 0.0, 10))

    def test_degree_above_grid(self):
        p = hahn.HahnParams(0.0, 0.0, 3)
        with pytest.raises(errors.ParameterError, match="degree must satisfy 0 <= n <= N=3"):
            lsq.fit_hahn(registry.resolve("const1"), 4, p)

    def test_matches_multi_digit_fit_at_the_criterion_07_cell(self):
        # exp at n = 8, N = 144; closed-form lgamma norms put the fit
        # 2.8e-14 max|f| off the 50-digit fit at these points
        p = hahn.HahnParams(0.0, 0.0, 144)
        a = lsq.fit_hahn(registry.resolve("exp"), 8, p)
        ts = np.linspace(-1.0, 1.0, 401)
        reference = np.array(oracles.mp_fit_values(mpmath.exp, 8, 0.0, 144, ts))
        assert np.max(np.abs(lsq.evaluate(a, ts) - reference)) <= 1e-14 * math.e


class TestNormalEquationsOracle:
    def test_exact_monomial_and_hahn_routes_agree(self):
        """The two exact-rational fits describe one projection."""
        mono = [Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3), Fraction(4, 9)]
        n, N = 3, 9
        samples = oracles.frac_monomial_to_grid(mono + [Fraction(5, 11)], N)
        for alpha in (0, 2):
            mono_fit = oracles.frac_fit_monomial(samples, n, alpha, alpha, N)
            grid_vals = oracles.frac_monomial_to_grid(mono_fit, N)
            hahn_from_mono = oracles.frac_fit_hahn(grid_vals, n, alpha, alpha, N)
            hahn_direct = oracles.frac_fit_hahn(samples, n, alpha, alpha, N)
            assert hahn_from_mono == hahn_direct

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_agrees_with_hahn_fit_on_polynomials(self, alpha):
        # the exact normal equations on the same double samples
        rng = np.random.default_rng(77)
        for n, N in ((2, 8), (4, 10), (6, 12)):
            coeffs = rng.uniform(-2, 2, size=n + 1)
            f = registry.polynomial_function(list(coeffs))
            a = lsq.fit_hahn(f, n, hahn.HahnParams(alpha, alpha, N))
            grid = lsq.grid_points(N)
            samples = [Fraction(v) for v in f.evaluator(grid)]
            mono = oracles.frac_fit_monomial(samples, n, alpha, alpha, N)
            want = np.array([float(v) for v in oracles.frac_monomial_to_grid(mono, N)])
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(lsq.evaluate(a, grid) - want)) <= 1e-13 * scale

    def test_smaller_transcendental_case(self):
        a = lsq.fit_hahn(registry.resolve("exp"), 3, hahn.HahnParams(0.0, 0.0, 30))
        grid = lsq.grid_points(30)
        reference = np.array(oracles.mp_fit_values(mpmath.exp, 3, 0.0, 30, grid))
        assert np.max(np.abs(lsq.evaluate(a, grid) - reference)) <= 1e-14 * math.e

    def test_high_but_tractable_condition_still_solves(self):
        # the weighted monomial Gram matrix has condition 2.9e11 here; the
        # Hahn fit forms none and matches the extended-precision fit
        p = hahn.HahnParams(0.0, 0.0, 544)
        f = registry.resolve("exp")
        a = lsq.fit_hahn(f, 16, p)
        fs, _ = lsq._weighted_samples(f, 16, p)
        reference = oracles.longdouble_fit(fs, 16, 0.0, 0.0, 544)
        b = lsq.Approximant(p, 16, tuple(float(c) for c in reference))
        ts = np.linspace(-1, 1, 401)
        assert np.max(np.abs(lsq.evaluate(a, ts) - lsq.evaluate(b, ts))) <= 1e-13


class TestEvaluate:
    def test_zero_coefficients(self):
        p = hahn.HahnParams(0.0, 0.0, 5)
        a = lsq.Approximant(p, 2, (0.0, 0.0, 0.0))
        assert lsq.evaluate(a, 0.3) == 0.0
        assert np.all(lsq.evaluate(a, np.linspace(-1, 1, 5)) == 0.0)

    def test_constant_term_only(self):
        p = hahn.HahnParams(0.5, 0.5, 6)
        a = lsq.Approximant(p, 0, (1.0,))
        assert lsq.evaluate(a, -0.7) == 1.0

    def test_shape_preserved(self):
        p = hahn.HahnParams(0.0, 0.0, 5)
        a = lsq.Approximant(p, 1, (1.0, 0.5))
        out = lsq.evaluate(a, np.zeros((2, 3)))
        assert out.shape == (2, 3)
        assert float(out[0, 0]) == lsq.evaluate(a, 0.0)


class TestSupError:
    def test_reproduced_polynomial_has_tiny_error(self):
        p = hahn.HahnParams(0.0, 0.0, 20)
        f = registry.polynomial_function([0.25, -1.0, 0.5, 2.0])
        a = lsq.fit_hahn(f, 3, p)
        report = lsq.sup_error(f, a)
        assert report.sup_error <= 1e-10

    def test_witness_attains_the_constant(self):
        p = hahn.HahnParams(0.0, 0.0, 4)
        witness = lsq.extremal_function(1, p)
        a = lsq.fit_hahn(witness, 1, p)
        report = lsq.sup_error(f=witness, a=a, bound=bounds.worst_case_constant(1, 4, 0.0))
        assert report.sup_error == pytest.approx(0.25, rel=1e-10)
        assert report.argmax == -1.0
        assert report.ratio == pytest.approx(1.0, rel=1e-9)

    def test_smooth_target_respects_bound(self):
        p = hahn.HahnParams(0.0, 0.0, 40)
        f = registry.resolve("exp")
        a = lsq.fit_hahn(f, 4, p)
        bound = bounds.worst_case_constant(4, 40, 0.0) * f.derivative_sup(5)
        report = lsq.sup_error(f, a, bound=bound)
        assert report.sup_error <= bound * (1 + 1e-8)
        assert report.ratio == report.sup_error / bound

    def test_zero_bound_gives_infinite_ratio(self):
        p = hahn.HahnParams(0.0, 0.0, 10)
        f = registry.resolve("linear")
        a = lsq.Approximant(p, 0, (0.5,))
        report = lsq.sup_error(f, a, bound=0.0)
        assert report.ratio == math.inf


# oscillatory targets, whose error peaks fall between candidates; few
# nodes per degree (N = n+1, 3n+2) make the peaks large and narrow, and
# alpha != beta breaks the mirror symmetry of the error
_POLISH_CELLS = [
    (name, alpha, beta, n, N)
    for name in ("runge", "sin10")
    for alpha, beta in ((0.0, 0.0), (0.5, 0.5), (3.0, 0.0), (0.5, 2.0))
    for n in (4, 11, 23, 40)
    for N in (n + 1, 3 * n + 2)
]
# exp at n = 4 peaks at the end point t = 1
_EXP_CELL = ("exp", 0.0, 0.0, 4, 40)


def _cell_id(cell):
    return "-".join(map(str, cell))


class TestSupErrorPolish:
    """The polish of sup_error: at most three parabolic steps from the
    grid argmax and its neighbours."""

    @staticmethod
    def _fit(name, alpha, beta, n, N):
        f = registry.resolve(name)
        return f, lsq.fit_hahn(f, n, hahn.HahnParams(alpha, beta, N))

    @pytest.mark.parametrize("cell", _POLISH_CELLS[::5] + [_EXP_CELL], ids=_cell_id)
    def test_evaluates_the_target_at_most_three_times(self, cell):
        f, a = self._fit(*cell)
        scalar_calls = []

        def evaluator(t):
            if np.ndim(t) == 0:
                scalar_calls.append(t)
            return f.evaluator(t)

        lsq.sup_error(dataclasses.replace(f, evaluator=evaluator), a)
        assert len(scalar_calls) <= 3

    @pytest.mark.parametrize("cell", _POLISH_CELLS + [_EXP_CELL], ids=_cell_id)
    def test_never_below_the_grid_maximum(self, cell):
        f, a = self._fit(*cell)
        cand = lsq._candidates()
        errs = np.abs(f.evaluator(cand) - lsq._scan(lsq._chebyshev_coefficients(a)))
        i = int(np.argmax(errs))
        report = lsq.sup_error(f, a)
        assert report.sup_error >= errs[i]
        if report.sup_error == errs[i]:
            assert report.argmax == cand[i]

    @pytest.mark.parametrize("cell", _POLISH_CELLS, ids=_cell_id)
    def test_reaches_the_dense_bracket_maximum(self, cell):
        # the candidates and 4001 points across the grid bracket of the
        # argmax, the approximant summed by numpy's chebval rather than the
        # package; the steps must come within 1e-13 max|f| of their maximum
        f, a = self._fit(*cell)
        cand, coefficients = lsq._candidates(), lsq._chebyshev_coefficients(a)
        chebval = np.polynomial.chebyshev.chebval
        errs = np.abs(f.evaluator(cand) - chebval(cand, coefficients))
        i = int(np.argmax(errs))
        ts = np.linspace(cand[max(i - 1, 0)], cand[min(i + 1, cand.size - 1)], 4001)
        reference = max(errs.max(), np.abs(f.evaluator(ts) - chebval(ts, coefficients)).max())
        scale = np.abs(f.evaluator(cand)).max()
        assert lsq.sup_error(f, a).sup_error >= reference - 1e-13 * scale


# targets whose registry spec declares a parity; poly:0,1,0,-2 is odd
# and poly:1,0,3 even
_PARITY_TARGETS = ["sin1", "sin3", "sin10", "runge", "const1", "linear", "poly:0,1,0,-2", "poly:1,0,3"]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _report_bits(report):
    return _bits([report.sup_error, report.argmax])


class TestParity:
    """An even or odd target is sampled on t >= 0 and mirrored; sup_error
    must give the bits of the full sample."""

    @pytest.mark.parametrize("name", _PARITY_TARGETS)
    def test_declared_parity_holds_bit_for_bit(self, name):
        # t = 0 is sampled, never mirrored, and -(+0.0) is -0.0
        f = registry.resolve(name)
        t = lsq._half_candidates()[1:]
        assert _bits(f.evaluator(-t)) == _bits(f.parity * f.evaluator(t))

    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (3.0, 0.0)])
    @pytest.mark.parametrize("name", _PARITY_TARGETS)
    def test_sup_error_equals_the_full_sample(self, name, alpha, beta):
        f = registry.resolve(name)
        a = lsq.fit_hahn(f, 7, hahn.HahnParams(alpha, beta, 40))
        full = lsq.sup_error(dataclasses.replace(f, parity=None), a)
        assert _report_bits(lsq.sup_error(f, a)) == _report_bits(full)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_sweep_witnesses_equal_the_full_sample(self, alpha):
        for n in range(1, 21):
            params = hahn.HahnParams(alpha, alpha, 2 * n * (n + 1))
            f = lsq.extremal_function(n, params)
            a = lsq.fit_hahn(f, n, params)
            full = lsq.sup_error(dataclasses.replace(f, parity=None), a)
            assert f.parity == (-1) ** (n + 1)
            assert _report_bits(lsq.sup_error(f, a)) == _report_bits(full), n

    @pytest.mark.parametrize("name", ["exp", "poly:0.5,-1.5,0.25,2.0"])
    def test_other_targets_declare_none(self, name):
        assert registry.resolve(name).parity is None

    @pytest.mark.parametrize("parity", [0, 2, 0.5])
    def test_only_plus_or_minus_one(self, parity):
        with pytest.raises(errors.ParameterError):
            lsq.FunctionSpec("f", np.sin, parity=parity)


class TestCandidateValues:
    """A spec samples its target on the sup_error candidates once."""

    def test_fixed_names_share_one_spec(self):
        assert registry.resolve("sin3") is registry.resolve("sin3")
        params = hahn.HahnParams(0.0, 0.0, 12)
        assert registry.resolve("extremal:2", params) is not registry.resolve("extremal:2", params)

    @pytest.mark.parametrize("parity", [-1, None])
    def test_two_sup_errors_sample_once(self, parity):
        f = registry.resolve("sin3")
        arrays = []

        def evaluator(t):
            if np.ndim(t):
                arrays.append(t)
            return f.evaluator(t)

        counted = dataclasses.replace(f, evaluator=evaluator, parity=parity)
        a = lsq.fit_hahn(f, 5, hahn.HahnParams(0.5, 0.5, 60))
        assert lsq.sup_error(counted, a) == lsq.sup_error(counted, a)
        assert len(arrays) == 1
        if parity is None:
            assert arrays[0] is lsq._candidates()
        else:
            assert arrays[0] is lsq._half_candidates()
            assert arrays[0].size == 7048 and not np.any(arrays[0] < 0)

    @pytest.mark.parametrize("name", ["sin3", "exp"])
    def test_cached_values_are_read_only(self, name):
        values = registry.resolve(name)._candidate_values
        assert values.shape == lsq._candidates().shape
        with pytest.raises(ValueError):
            values[0] = 0.0


def _fit_large_cells():
    """(function, n, params) of round 0 of the benchmark's fit-large workload."""
    path = pathlib.Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(op.function, op.n, hahn.HahnParams(op.alpha, op.beta, op.N))
            for op in module.ops("fit-large")]


class TestCarriedChebyshevValues:
    """fit_hahn carries the fit's values at the n+1 Chebyshev points from
    its own walk; they and the sup_error built on them must have the bits
    of the evaluate path that a hand-built twin of the fit still takes."""

    @staticmethod
    def assert_carried_equals_evaluated(f, n, params):
        fit = lsq.fit_hahn(f, n, params)
        twin = lsq.Approximant(params, n, fit.coefficients)
        assert twin.chebyshev_values is None
        evaluated = lsq.evaluate(twin, lsq._chebyshev_nodes(n))
        assert _bits(fit.chebyshev_values) == _bits(evaluated), (f.name, n, params)
        assert _report_bits(lsq.sup_error(f, fit)) == _report_bits(lsq.sup_error(f, twin))

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_sweep_witness_cells(self, alpha):
        for n in range(1, 21):
            params = hahn.HahnParams(alpha, alpha, 2 * n * (n + 1))
            self.assert_carried_equals_evaluated(lsq.extremal_function(n, params), n, params)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("name", ["exp", "sin3", "poly:0.5,-1.5,0.25,2.0"])
    def test_sweep_convergence_cells(self, name, alpha):
        f = registry.resolve(name)
        for n in range(1, 31):
            self.assert_carried_equals_evaluated(f, n, hahn.HahnParams(alpha, alpha, 2 * n * (n + 1)))

    @pytest.mark.filterwarnings("ignore::hahn_lsq.errors.NumericalRangeWarning")
    def test_fit_large_round(self):
        cells = _fit_large_cells()
        assert sum(not params.symmetric for _, _, params in cells) == 4
        for name, n, params in cells:
            self.assert_carried_equals_evaluated(registry.resolve(name), n, params)

    def test_only_fit_hahn_sets_the_values(self):
        fit = lsq.fit_hahn(registry.resolve("exp"), 6, hahn.HahnParams(0.5, 0.5, 84))
        assert fit.chebyshev_values.shape == (7,)
        with pytest.raises(ValueError):
            fit.chebyshev_values[0] = 0.0
        assert dataclasses.replace(fit, coefficients=fit.coefficients[::-1]).chebyshev_values is None
        twin = lsq.Approximant(fit.params, 6, fit.coefficients)
        assert fit == twin and hash(fit) == hash(twin) and repr(fit) == repr(twin)
        with pytest.raises(TypeError):
            lsq.Approximant(fit.params, 6, fit.coefficients, fit.chebyshev_values)

    def test_sup_error_evaluates_only_a_hand_built_approximant(self, monkeypatch):
        f, params = registry.resolve("sin3"), hahn.HahnParams(0.0, 0.0, 40)
        fit = lsq.fit_hahn(f, 4, params)
        calls = []
        evaluate = lsq.evaluate
        monkeypatch.setattr(lsq, "evaluate", lambda a, t: calls.append(a) or evaluate(a, t))
        lsq.sup_error(f, fit)
        assert calls == []
        lsq.sup_error(f, lsq.Approximant(params, 4, fit.coefficients))
        assert len(calls) == 1

    def test_fit_builds_no_cosine_matrix(self):
        before = lsq._chebyshev_matrix.cache_info()
        lsq.fit_hahn(registry.resolve("exp"), 37, hahn.HahnParams(0.25, 0.25, 2 * 37 * 38))
        assert lsq._chebyshev_matrix.cache_info() == before

    def test_rows_and_norms_share_one_coefficient_build(self):
        hahn._recurrence_coefficients.cache_clear()
        cli._fit_report(registry.resolve("exp"), 12, hahn.HahnParams(0.375, 0.375, 312))
        assert hahn._recurrence_coefficients.cache_info().misses == 1


class TestExtremalFunction:
    def test_small_case_closed_form(self):
        # f*(t) = (2 t^2 - 1)/4 for n = 1 on the flat five-point grid
        p = hahn.HahnParams(0.0, 0.0, 4)
        f = lsq.extremal_function(1, p)
        for t in (-1.0, -0.3, 0.0, 0.6, 1.0):
            assert f.evaluator(t) == pytest.approx((2 * t * t - 1) / 4, abs=1e-13)

    def test_degree_zero_witness_is_identity(self):
        p = hahn.HahnParams(0.0, 0.0, 10)
        f = lsq.extremal_function(0, p)
        for t in (-1.0, 0.25, 1.0):
            assert f.evaluator(t) == pytest.approx(t, abs=1e-13)

    def test_certifies_only_its_own_order(self):
        p = hahn.HahnParams(0.0, 0.0, 12)
        f = lsq.extremal_function(2, p)
        assert f.derivative_sup(3) == 1.0
        with pytest.raises(errors.MissingDerivativeBoundError):
            f.derivative_sup(2)

    def test_requires_symmetric_weight(self):
        with pytest.raises(errors.ParameterError):
            lsq.extremal_function(1, hahn.HahnParams(0.0, 1.0, 10))

    def test_requires_degree_hypothesis(self):
        with pytest.raises(errors.ThresholdError):
            lsq.extremal_function(2, hahn.HahnParams(0.0, 0.0, 4))

    @pytest.mark.parametrize(
        "n,N,alpha", [(0, 4, 0.0), (1, 4, 0.0), (2, 12, 0.0), (1, 8, 1.0), (3, 40, 0.5)]
    )
    def test_sup_error_equals_constant(self, n, N, alpha):
        p = hahn.HahnParams(alpha, alpha, N)
        witness = lsq.extremal_function(n, p)
        a = lsq.fit_hahn(witness, n, p)
        measured = lsq.sup_error(witness, a).sup_error
        constant = bounds.worst_case_constant(n, N, alpha)
        assert measured == pytest.approx(constant, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "n,N,alpha",
        [(0, 4, 0.0), (1, 8, 1.0), (3, 40, 0.5), (5, 60, 0.25), (6, 84, 0.0), (4, 200, 2.0)],
    )
    def test_derivative_of_order_n_plus_1_is_one(self, n, N, alpha):
        # f* is a polynomial of degree m = n+1 in t, so f*^(m) = m! times
        # its leading coefficient.  Exactly: D_{n,N} (N/2)^m m! times the
        # leading x-coefficient of Q_m is (-1)^m, which is why D scales it.
        m = n + 1
        lead = oracles.frac_hahn_leading(m, alpha, alpha, N) * Fraction(N, 2) ** m
        exact = oracles.frac_worst_case_constant(n, N, alpha) * lead * math.factorial(m)
        assert exact == (-1) ** m
        # and the float witness: its m-th divided difference is the leading
        # coefficient, taken exactly over its samples at m+1 Chebyshev points
        witness = lsq.extremal_function(n, hahn.HahnParams(alpha, alpha, N))
        ts = [Fraction(math.cos(math.pi * (j + 0.5) / (m + 1))) for j in range(m + 1)]
        diffs = [Fraction(float(witness.evaluator(float(t)))) for t in ts]
        for level in range(1, m + 1):
            diffs = [
                (diffs[i + 1] - diffs[i]) / (ts[i + level] - ts[i]) for i in range(m + 1 - level)
            ]
        assert float(diffs[0]) * math.factorial(m) == pytest.approx(1.0, rel=1e-13, abs=0.0)


# degree 41 is past the validated degree 40; the witness of degree
# n + 1 = 41 needs N >= 2 n (n + 1) = 3280 for the degree hypothesis
_PAST_RANGE = hahn.HahnParams(0.0, 0.0, 2 * 41 * 42)
_PAST_RANGE_FIT = lsq.Approximant(_PAST_RANGE, 41, (1.0,) * 42)


@pytest.mark.parametrize(
    "call",
    [
        lambda: lsq.fit_hahn(registry.resolve("exp"), 41, _PAST_RANGE),
        lambda: lsq.evaluate(_PAST_RANGE_FIT, 0.5),
        lambda: lsq.sup_error(registry.resolve("exp"), _PAST_RANGE_FIT),
        lambda: hahn.hahn_table(41, [0.5], _PAST_RANGE),
        lambda: lsq.extremal_function(40, hahn.HahnParams(0.0, 0.0, 2 * 40 * 41)),
    ],
    ids=["fit_hahn", "evaluate", "sup_error", "hahn_table", "extremal_function"],
)
def test_range_warning_names_the_calling_line(call):
    with pytest.warns(errors.NumericalRangeWarning) as records:
        call()
    ours = [r for r in records if issubclass(r.category, errors.NumericalRangeWarning)]
    assert [r.filename for r in ours] == [__file__] * len(ours)


class TestClassKDefect:
    def test_smooth_example_value(self):
        f = registry.resolve("exp")
        got = lsq.class_K_defect(f, 10, 0.0)
        independent = math.e * math.sqrt(10) / (2**10 * math.factorial(10))
        assert got == pytest.approx(independent, rel=1e-12)
        assert got == pytest.approx(2.3132975207071956e-09, rel=1e-12)

    def test_polynomial_defect_vanishes_past_its_degree(self):
        f = registry.polynomial_function([1.0, 2.0, 3.0])
        assert lsq.class_K_defect(f, 5, 0.0) == 0.0

    def test_oscillatory_target_decays(self):
        f = registry.resolve("sin4")
        val = lsq.class_K_defect(f, 30, 0.0)
        assert 0 < val < 1e-18

    def test_uncertified_target_rejected(self):
        with pytest.raises(errors.MissingDerivativeBoundError):
            lsq.class_K_defect(registry.resolve("runge"), 3, 0.0)

    def test_order_zero_conventions(self):
        f = registry.resolve("const1")
        assert lsq.class_K_defect(f, 0, 0.0) == 0.0
        assert lsq.class_K_defect(f, 0, -0.5) == 1.0

    def test_parameter_domain(self):
        f = registry.resolve("exp")
        with pytest.raises(errors.ParameterError):
            lsq.class_K_defect(f, 3, -0.6)
        with pytest.raises(errors.ParameterError, match="order must be >= 0"):
            lsq.class_K_defect(f, -1, 0.0)


class TestProjectionProperties:
    def test_linearity(self):
        p = hahn.HahnParams(0.0, 0.0, 16)
        f = registry.resolve("exp")
        g = registry.resolve("sin4")

        def combo(t):
            arr = np.asarray(t, dtype=float)
            return 2.0 * np.exp(arr) + 3.0 * np.sin(4.0 * arr)

        h = lsq.FunctionSpec("combo", combo)
        ch = lsq.fit_hahn(h, 5, p).coefficients
        cf = lsq.fit_hahn(f, 5, p).coefficients
        cg = lsq.fit_hahn(g, 5, p).coefficients
        for k in range(6):
            assert ch[k] == pytest.approx(2 * cf[k] + 3 * cg[k], rel=1e-10, abs=1e-12)

    def test_idempotence(self):
        p = hahn.HahnParams(1.0, 1.0, 14)
        f = registry.resolve("exp")
        a = lsq.fit_hahn(f, 4, p)
        refit = lsq.fit_hahn(
            lsq.FunctionSpec("fitted", lambda t: lsq.evaluate(a, t)), 4, p
        )
        for ca, cb in zip(a.coefficients, refit.coefficients):
            assert cb == pytest.approx(ca, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_polynomials_reproduce_exactly(self, alpha):
        rng = np.random.default_rng(5)
        for n in (1, 3, 5, 10):
            for N in (max(2 * n, n + 1), 2 * n * (n + 1)):
                coeffs = rng.uniform(-1, 1, size=n + 1)
                f = registry.polynomial_function(list(coeffs))
                p = hahn.HahnParams(alpha, alpha, N)
                a = lsq.fit_hahn(f, n, p)
                ts = np.linspace(-1, 1, 101)
                dev = np.max(np.abs(lsq.evaluate(a, ts) - f.evaluator(ts)))
                assert dev <= 1e-9 * max(1.0, np.max(np.abs(f.evaluator(ts))))
