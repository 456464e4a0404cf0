"""End-to-end acceptance gate.

Each test covers one numbered criterion and reports one PASS/FAIL line
in the terminal summary via conftest.record_criterion.  Tolerances are
the contracted ones; nothing here is loosened to make a run green.
"""

import math
import pathlib
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest

import oracles
from conftest import record_criterion
from hahn_lsq import bounds, cli, hahn, lsq, registry

GOLDEN = pathlib.Path(__file__).parent / "golden"


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        record_criterion(number, label, False)
        raise
    record_criterion(number, label, True)


def test_criterion_01_orthogonality_and_norms():
    with criterion(1, "orthogonality and norms"):
        for alpha in (-0.25, 0.0, 0.5, 1.0, 2.0):
            for N in (10, 50, 200):
                params = hahn.HahnParams(alpha, alpha, N)
                kmax = min(N, 30)
                w = hahn.DiscreteWeight.from_params(params)
                table = hahn.hahn_table(kmax, np.arange(N + 1, dtype=float), params)
                norms = [hahn.hahn_norm_sq(k, params) for k in range(kmax + 1)]
                for k in range(kmax + 1):
                    brute = oracles.inner_product(table[k], table[k], w)
                    assert abs(norms[k] - brute) <= 1e-9 * abs(norms[k])
                    for j in range(k):
                        cross = oracles.inner_product(table[j], table[k], w)
                        assert abs(cross) / math.sqrt(norms[j] * norms[k]) <= 1e-9
        # rational mode: exact equalities, integer parameters
        for alpha in (0, 1, 2):
            params = hahn.HahnParams(float(alpha), float(alpha), 10)
            for k in range(7):
                closed = oracles.frac_norm_closed(k, alpha, alpha, 10)
                assert closed == oracles.frac_norm_brute(k, alpha, alpha, 10)
                assert hahn.hahn_norm_sq(k, params) == pytest.approx(float(closed), rel=1e-13)
                for j in range(k):
                    sj = [oracles.frac_hahn(j, i, alpha, alpha, 10) for i in range(11)]
                    sk = [oracles.frac_hahn(k, i, alpha, alpha, 10) for i in range(11)]
                    assert oracles.frac_inner(sj, sk, alpha, alpha, 10) == 0


def test_criterion_02_sharpness_of_the_constant():
    with criterion(2, "sharpness of the worst-case constant"):
        for n, N, alpha in ((0, 4, 0.0), (1, 4, 0.0), (2, 12, 0.0), (1, 8, 1.0), (3, 40, 0.5)):
            params = hahn.HahnParams(alpha, alpha, N)
            assert n + 1 <= bounds.degree_threshold(alpha, N)
            witness = lsq.extremal_function(n, params)
            approx = lsq.fit_hahn(witness, n, params)
            measured = lsq.sup_error(witness, approx).sup_error
            constant = bounds.worst_case_constant(n, N, alpha)
            assert measured == pytest.approx(constant, rel=1e-8)
        # the hand-derivable case: f*(t) = (2t^2 - 1)/4, constant 1/4
        params = hahn.HahnParams(0.0, 0.0, 4)
        witness = lsq.extremal_function(1, params)
        for t in np.linspace(-1, 1, 41):
            assert witness.evaluator(t) == pytest.approx((2 * t * t - 1) / 4, abs=1e-13)
        assert bounds.worst_case_constant(1, 4, 0.0) == 0.25
        measured = lsq.sup_error(witness, lsq.fit_hahn(witness, 1, params)).sup_error
        assert measured == pytest.approx(0.25, rel=1e-12)


def test_criterion_03_upper_bound():
    with criterion(3, "upper bound on smooth targets"):
        checked = 0
        for name in ("exp", "sin2", "sin4"):
            f = registry.resolve(name)
            for alpha in (0.0, 1.0):
                for n in range(1, 11):
                    for N in (2 * n * (n + 1), 10 * n * n):
                        if N < n + 1 or n + 1 > bounds.degree_threshold(alpha, N):
                            continue
                        params = hahn.HahnParams(alpha, alpha, N)
                        approx = lsq.fit_hahn(f, n, params)
                        bound = bounds.worst_case_constant(n, N, alpha) * float(
                            f.derivative_sup(n + 1)
                        )
                        report = lsq.sup_error(f, approx, bound=bound)
                        assert report.sup_error <= bound * (1 + 1e-8)
                        checked += 1
        assert checked == 120


def test_criterion_04_factorization_identity():
    with criterion(4, "discrete constant factorization"):
        # the library computes D as C times the grid factor, so both are
        # checked against the exact rational factorial form instead
        for alpha in (-0.25, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
            for n in range(0, 41):
                C = bounds.continuous_constant(n, alpha)
                exact = oracles.frac_continuous_constant(n, alpha)
                assert C == pytest.approx(float(exact), rel=1e-12)
                for N in (2 * n * (n + 1), 10 * n * n):
                    if N < n + 1 or n + 1 > bounds.degree_threshold(alpha, N):
                        continue
                    D = bounds.worst_case_constant(n, N, alpha)
                    exact = oracles.frac_worst_case_constant(n, N, alpha)
                    assert D == pytest.approx(float(exact), rel=1e-12)


def test_criterion_05_alpha0_sandwich():
    with criterion(5, "flat-weight sandwich"):
        # C_n(0) = 2^{n+1} (n+1)! / (2n+2)! is v_{n+1}, so its sandwich is
        # the Stirling enclosure at n + 1; the library's C_n(0) lies inside
        # it wherever C_n(0) is a normal double
        for n in range(0, 201):
            log_low, log_exact, log_up = oracles.stirling_sandwich_logs(n + 1)
            assert log_low <= log_exact <= log_up
            if n <= 149:
                assert log_low <= math.log(bounds.continuous_constant(n, 0.0)) <= log_up


def test_criterion_06_stirling_and_gamma_residual():
    with criterion(6, "factorial sandwich and gamma residual"):
        for n in range(1, 501):
            log_low, log_val, log_up = oracles.stirling_sandwich_logs(n)
            assert log_low <= log_val <= log_up
        for (a, b), cap in (((2.0, 1.0), 0.01), ((0.5, 1.5), 0.26), ((3.0, 0.5), 2.5)):
            for N in (100, 1000, 10000):
                residual = oracles.gamma_ratio_residual(a, b, N)
                assert abs(residual) * N * N <= cap


def test_criterion_07_convergence_along_node_rule():
    with criterion(7, "uniform convergence along the quadratic node rule"):
        f = registry.resolve("exp")
        sups = []
        bound_seq = []
        for n in range(1, 9):
            N = 2 * n * (n + 1)
            params = hahn.HahnParams(0.0, 0.0, N)
            a = lsq.fit_hahn(f, n, params)
            ts = np.linspace(-1, 1, 801)
            reference = np.array(oracles.mp_fit_values(mpmath.exp, n, 0.0, N, ts))
            assert np.max(np.abs(lsq.evaluate(a, ts) - reference)) <= 1e-14 * math.e
            sups.append(lsq.sup_error(f, a).sup_error)
            assert n + 1 <= bounds.degree_threshold(0.0, N)
            bound = bounds.worst_case_constant(n, N, 0.0) * f.derivative_sup(n + 1)
            assert sups[-1] <= bound, f"n={n}: sup {sups[-1]:.16e} > bound {bound:.16e}"
            bound_seq.append(bound)
        assert all(x > y for x, y in zip(sups, sups[1:]))
        # the paper's convergence: D_{n,N} ||f^{(n+1)}|| falls along the rule
        assert all(x > y for x, y in zip(bound_seq, bound_seq[1:]))
        # two-sided band at n=8, N=144.  Above: the paper's sharp estimate
        # D_{8,144} e ~ 6.11e-8.  Below: no degree-8 polynomial beats
        # E_8(exp) >= a_9 - sum_{k>=10} a_k ~ 1.05e-8, the de la Vallee
        # Poussin bound on exp's Chebyshev series, computed exactly in
        # oracles.  A sup scan that under-reports falls below the band.
        low = oracles.exp_best_approx_lower(8)
        assert low <= sups[-1] <= bound_seq[-1], (
            f"sup error at n=8 is {sups[-1]:.16e}, outside "
            f"[{float(low):.16e}, {bound_seq[-1]:.16e}]"
        )


def test_criterion_08_limit_to_jacobi():
    with criterion(8, "grid refinement limit to the continuous family"):
        noise = 1e-13
        for alpha in (0.0, 1.0):
            for n in range(0, 6):
                front = (-1.0) ** n * float(mpmath.binomial(alpha + n, n))
                for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
                    # zeroprec: at a zero of P_n mpmath raises without it
                    target = float(mpmath.jacobi(n, alpha, alpha, x, zeroprec=200))
                    # the exact row, and the package's float row at the same point
                    exact_gaps, package_gaps = [], []
                    for N in (100, 1000, 10000):
                        point = N * (1 + x) / 2
                        exact = oracles.frac_hahn(n, point, alpha, alpha, N)
                        exact_gaps.append(abs(front * float(exact) - target))
                        row = hahn.hahn_table(n, [point], hahn.HahnParams(alpha, alpha, N))[n]
                        assert abs(float(row[0]) - float(exact)) <= noise
                        package_gaps.append(abs(front * float(row[0]) - target))
                    for gaps in (exact_gaps, package_gaps):
                        for wide, fine in zip(gaps, gaps[1:]):
                            if wide > noise:
                                assert fine < wide
                            else:
                                # identically-zero gaps sit at rounding noise
                                assert fine <= noise


def test_criterion_09_endpoint_maximum():
    with criterion(9, "endpoint maximum below the threshold"):
        for alpha in (0.0, 0.5, 1.0):
            for N in (4, 12, 40, 100):
                top = math.floor(bounds.degree_threshold(alpha, N))
                for n in range(0, min(top, N) + 1):
                    assert oracles.endpoint_max_check(n, alpha, N)


def test_criterion_10_cli_determinism(capsys):
    with criterion(10, "deterministic command output"):
        sweeps = [
            ["sharpness", "--alpha", "0", "--n", "0", "--nodes", "4"],
            ["sharpness", "--alpha", "0", "--n", "1", "--nodes", "4"],
            ["sharpness", "--alpha", "0", "--n", "2", "--nodes", "12"],
            ["sharpness", "--alpha", "1", "--n", "1", "--nodes", "8"],
            ["sharpness", "--alpha", "0.5", "--n", "3", "--nodes", "40"],
            ["compare", "--alpha", "0", "--n-range", "1..20", "--node-rule", "c4"],
            ["convergence", "--function", "exp", "--alpha", "0", "--node-rule", "c4",
             "--n-range", "1..8"],
        ]
        goldens = [
            "sharpness_n0_N4_a0.csv",
            "sharpness_n1_N4_a0.csv",
            "sharpness_n2_N12_a0.csv",
            "sharpness_n1_N8_a1.csv",
            "sharpness_n3_N40_a05.csv",
            "compare_c4_a0_n1_20.csv",
            "convergence_exp_c4_a0_n1_8.csv",
        ]
        for args, name in zip(sweeps, goldens):
            outputs = []
            for _ in range(2):
                code = cli.main(args)
                assert code == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]
            assert outputs[0] == (GOLDEN / name).read_text(encoding="utf-8")
        # the golden tables carry the headline numbers of the earlier
        # criteria: the attained constants, the factorization columns,
        # and the convergence sweep
        sharp = (GOLDEN / "sharpness_n1_N4_a0.csv").read_text().splitlines()[1].split(",")
        assert float(sharp[3]) == pytest.approx(0.25, rel=1e-12)
        assert float(sharp[4]) == 0.25
        for line in (GOLDEN / "compare_c4_a0_n1_20.csv").read_text().splitlines()[1:]:
            _, _, _, D, C, ratio = line.split(",")
            assert float(D) == pytest.approx(float(C) * float(ratio), rel=1e-12)
        conv = [
            line.split(",")
            for line in (GOLDEN / "convergence_exp_c4_a0_n1_8.csv").read_text().splitlines()[1:]
        ]
        sups = [float(row[2]) for row in conv]
        assert all(x > y for x, y in zip(sups, sups[1:]))
