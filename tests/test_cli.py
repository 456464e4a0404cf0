import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hahn_lsq import bounds, cli, errors, hahn, lsq, registry

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestRegistry:
    def test_named_functions(self):
        f = registry.resolve("const1")
        assert f.evaluator(0.3) == 1.0
        g = registry.resolve("linear")
        assert g.evaluator(0.25) == 0.25
        assert g.derivative_sup(1) == 1.0
        assert g.derivative_sup(2) == 0.0

    def test_sine_family(self):
        f = registry.resolve("sin3")
        assert f.evaluator(0.5) == pytest.approx(math.sin(1.5), rel=1e-15)
        assert f.derivative_sup(2) == 9.0
        with pytest.raises(errors.ParameterError):
            registry.resolve("sin0")

    def test_exp_certificate(self):
        f = registry.resolve("exp")
        assert f.derivative_sup(7) == math.e
        assert f.evaluator(1.0) == pytest.approx(math.e, rel=1e-15)

    def test_runge_has_no_certificate(self):
        f = registry.resolve("runge")
        assert f.derivative_sup is None
        assert f.evaluator(1.0) == pytest.approx(1 / 26, rel=1e-15)

    def test_polynomial_parsing_and_bounds(self):
        f = registry.resolve("poly:1,-2,0.5")
        assert f.evaluator(2.0) == pytest.approx(1 - 4 + 2, rel=1e-15)
        # |c1| + |c2| perm(2,1) on the first derivative
        assert f.derivative_sup(1) == pytest.approx(2 + 2 * 0.5, rel=1e-15)
        assert f.derivative_sup(3) == 0.0

    def test_polynomial_certificate_is_an_upper_bound(self):
        f = registry.polynomial_function([1.0, 2.0, 3.0])
        ts = np.linspace(-1, 1, 2001)
        deriv1 = np.abs(2.0 + 6.0 * ts)
        assert f.derivative_sup(1) >= np.max(deriv1) - 1e-12

    def test_extremal_requires_params(self):
        with pytest.raises(errors.ParameterError):
            registry.resolve("extremal:2")
        f = registry.resolve("extremal:1", hahn.HahnParams(0.0, 0.0, 4))
        assert f.name == "extremal:1"
        assert f.evaluator(1.0) == pytest.approx(0.25, rel=1e-12)

    def test_unknown_name(self):
        with pytest.raises(errors.ParameterError):
            registry.resolve("cosh")


class TestConfig:
    def test_degrees_requires_some_degree(self):
        config = cli.ExperimentConfig(command="bounds")
        with pytest.raises(errors.ParameterError):
            config.degrees()

    def test_range_expansion(self):
        config = cli.ExperimentConfig(command="bounds", n_range=(2, 5))
        assert config.degrees() == [2, 3, 4, 5]

    def test_beta_defaults_to_alpha(self):
        config = cli.ExperimentConfig(command="basis", alpha=0.5)
        assert config.resolved_beta() == 0.5
        assert config.params_for(6).beta == 0.5

    def test_options_may_precede_the_command(self, capsys):
        _, first, _ = run_cli(["bounds", "--alpha", "0.5", "--n-range", "1..4"], capsys)
        _, second, _ = run_cli(["--alpha", "0.5", "--n-range", "1..4", "bounds"], capsys)
        assert first == second


class TestExitCodes:
    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(["fit", "--bogus"], capsys)
        assert code == 2

    def test_bad_range_literal(self, capsys):
        code, _, _ = run_cli(["bounds", "--n-range", "5..2"], capsys)
        assert code == 2

    def test_unknown_function(self, capsys):
        code, _, err = run_cli(
            ["fit", "--function", "cosh", "--n", "2", "--nodes", "10"], capsys
        )
        assert code == 2
        assert "configuration error" in err

    def test_missing_degree(self, capsys):
        code, _, err = run_cli(["bounds", "--alpha", "0"], capsys)
        assert code == 2
        assert "configuration error" in err

    def test_asymmetric_sharpness(self, capsys):
        code, _, err = run_cli(
            ["sharpness", "--alpha", "0", "--beta", "1", "--n", "1", "--nodes", "8"], capsys
        )
        assert code == 2

    def test_threshold_violation(self, capsys):
        code, _, err = run_cli(
            ["fit", "--function", "extremal:9", "--n", "9", "--nodes", "24"], capsys
        )
        assert code == 3
        assert "threshold violation" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_instability(self, capsys):
        code, _, err = run_cli(
            ["fit", "--function", "poly:1e308,1e308", "--n", "1", "--nodes", "10"], capsys
        )
        assert code == 4
        assert "numerical instability" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "args,status,prefix",
        [
            (["bounds", "--alpha", "nan", "--n", "2"], 2, "hahn-lsq: error: argument --alpha"),
            (["bounds", "--alpha", "inf", "--n", "2"], 2, "hahn-lsq: error: argument --alpha"),
            (["compare", "--alpha", "nan", "--n", "2"], 2, "hahn-lsq: error: argument --alpha"),
            (
                # D_150 underflows at alpha = 0.5, so the witness has no scale;
                # a witness scaled by zero would report sup_error 0.0
                ["fit", "--function", "extremal:150", "--alpha", "0.5", "--nodes", "50000",
                 "--n", "2"],
                4,
                "numerical instability: ",
            ),
        ],
        ids=[
            "bounds-alpha-nan",
            "bounds-alpha-inf",
            "compare-alpha-nan",
            "fit-witness-scale-underflow",
        ],
    )
    def test_unusable_input_exits_with_documented_code(self, args, status, prefix, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == status
        assert err.splitlines()[-1].startswith(prefix)
        assert "nan" not in out

    @pytest.mark.parametrize(
        "name,alpha,n",
        # sin vanishes at the midpoint, where the raw weight is inf
        [("exp", 150.0, 4), ("exp", 100.0, 4), ("sin1", 150.0, 2)],
        ids=["fit-alpha-150", "fit-alpha-100", "fit-sin-alpha-150"],
    )
    def test_fit_is_scale_free_where_the_raw_weights_overflow(self, name, alpha, n, capsys):
        # omega passes 1e308 at N = 3000; the fit uses omega / max omega,
        # and so does its oracle, the whole-table product over the norms
        args = ["fit", "--function", name, "--alpha", str(alpha), "--nodes", "3000", "--n", str(n)]
        params = hahn.HahnParams(alpha, alpha, 3000)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(args, capsys)
            fs, weight = lsq._weighted_samples(registry.resolve(name), n, params)
            table = hahn.hahn_table(n, np.arange(3001, dtype=float), params)
            oracle = table @ (fs * weight) / (weight.sum() * hahn._norm_ratios(n, params))
        assert (code, err) == (0, "")
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
        coeffs = [float(r["value"]) for r in csv_rows(out) if r["kind"] == "coefficient"]
        assert np.max(np.abs(np.subtract(coeffs, oracle))) <= 1e-12

    @pytest.mark.parametrize(
        "args",
        [
            ["basis", "--alpha", "150", "--nodes", "3000", "--n", "1"],
            ["fit", "--function", "poly:1e308,1e308", "--n", "1", "--nodes", "10"],
            ["fit", "--function", "poly:1e308", "--n", "1", "--nodes", "10"],
        ],
        ids=["basis-alpha-150", "fit-infinite-samples", "fit-sum-overflows"],
    )
    def test_overflow_is_reported_once(self, args, capsys):
        # basis prints the raw weights and norms, which overflow here; the
        # first fit's target is inf at t = 1, and the second one's finite
        # samples sum past the double range in the projection.  numpy's
        # RuntimeWarning must not print ahead of the one line that
        # reports it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(args, capsys)
        assert code == 4
        assert out == ""
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert err.startswith("numerical instability: ")
        # the same run in a fresh interpreter, where warnings reach stderr
        paths = [str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        child = subprocess.run(
            [sys.executable, "-m", "hahn_lsq", *args], capture_output=True, text=True, env=env
        )
        assert child.returncode == 4
        assert child.stderr.splitlines() == [err.rstrip("\n")]

    @pytest.mark.parametrize(
        "args",
        [
            ["fit", "--function", "exp", "--alpha", "-0.5", "--nodes", "10", "--n", "2"],
            ["basis", "--alpha", "-0.5", "--nodes", "4", "--n", "1"],
        ],
        ids=["fit", "basis"],
    )
    def test_alpha_plus_beta_minus_one_is_in_the_domain(self, args, capsys):
        # h_0 = C(N, N) = 1 here; the closed-form norm divides 0/0
        code, out, err = run_cli(args, capsys)
        assert (code, err) == (0, "")
        assert "nan" not in out

    @pytest.mark.parametrize("command", ["bounds", "compare"])
    def test_constants_below_the_normal_range_exit_unstable(self, command, capsys):
        # at alpha = 0.5, C_150 = 6.2e-309 is subnormal; from n = 156 the
        # old output read D = C = 5e-324 next to a ratio of 0.7786
        code, out, err = run_cli([command, "--alpha", "0.5", "--n-range", "150..157"], capsys)
        assert code == 4
        assert out == ""
        assert err.splitlines()[-1].startswith("numerical instability: C_150 ")

    @pytest.mark.parametrize("command", ["bounds", "compare"])
    def test_constants_at_the_edge_of_the_normal_range_are_printed(self, command, capsys):
        code, out, _ = run_cli([command, "--alpha", "0.5", "--n-range", "146..149"], capsys)
        assert code == 0
        names = ("D", "C", "simplified")
        cells = [float(row[name]) for row in csv_rows(out) for name in names if name in row]
        assert len(cells) == {"bounds": 12, "compare": 16}[command]
        assert min(cells) >= sys.float_info.min

    def test_distinct_statuses(self):
        assert len({cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_THRESHOLD, cli.EXIT_UNSTABLE}) == 4


class TestBasisCommand:
    def test_polynomial_table_small_grid(self, capsys):
        code, out, _ = run_cli(["basis", "--alpha", "0", "--N", "4", "--n", "2"], capsys)
        assert code == 0
        rows = csv_rows(out)
        q2 = [float(r["value"]) for r in rows if r["kind"] == "hahn" and r["deg"] == "2"]
        assert q2 == pytest.approx([1.0, -0.5, -1.0, -0.5, 1.0], abs=1e-14)
        weights = [float(r["value"]) for r in rows if r["kind"] == "weight"]
        assert weights == [1.0] * 5
        residuals = [float(r["value"]) for r in rows if r["kind"] == "ortho_residual"]
        assert residuals and all(abs(v) <= 1e-12 for v in residuals)
        assert any(r["kind"] == "normalized" for r in rows)

    def test_norms_on_three_point_grid(self, capsys):
        code, out, _ = run_cli(["basis", "--alpha", "0", "--nodes", "2", "--n", "1"], capsys)
        assert code == 0
        norms = {r["deg"]: float(r["value"]) for r in csv_rows(out) if r["kind"] == "norm_sq"}
        assert norms["0"] == pytest.approx(3.0, rel=1e-12)
        assert norms["1"] == pytest.approx(2.0, rel=1e-12)

    def test_integer_weight_table(self, capsys):
        code, out, _ = run_cli(
            ["basis", "--alpha", "1", "--beta", "1", "--nodes", "2", "--n", "1"], capsys
        )
        assert code == 0
        weights = [float(r["value"]) for r in csv_rows(out) if r["kind"] == "weight"]
        assert weights == pytest.approx([3.0, 4.0, 3.0], rel=1e-12)

    def test_no_normalized_rows_for_asymmetric_weight(self, capsys):
        _, out, _ = run_cli(
            ["basis", "--alpha", "0", "--beta", "1", "--nodes", "4", "--n", "1"], capsys
        )
        assert not any(r["kind"] == "normalized" for r in csv_rows(out))

    def test_csv_cells_read_back_as_the_json_values(self, capsys):
        args = ["basis", "--alpha", "0.5", "--nodes", "6", "--n", "3"]
        _, csv_out, _ = run_cli(args, capsys)
        _, json_out, _ = run_cli(args + ["--format", "json"], capsys)
        rows = csv_rows(csv_out)
        expected = json.loads(json_out)["rows"]
        assert len(rows) == len(expected)
        assert any(r["kind"] == "normalized" for r in rows)
        for got, want in zip(rows, expected):
            for key, value in want.items():
                if value is None:
                    assert got[key] == ""
                elif isinstance(value, str):
                    assert got[key] == value
                else:
                    assert float(got[key]) == value

    def test_nodes_required(self, capsys):
        code, _, err = run_cli(["basis", "--alpha", "0", "--n", "2"], capsys)
        assert code == 2


class TestFitCommand:
    def test_constant_reproduced(self, capsys):
        code, out, _ = run_cli(
            ["fit", "--function", "const1", "--alpha", "0", "--nodes", "12", "--n", "3"], capsys
        )
        assert code == 0
        rows = csv_rows(out)
        coeffs = [float(r["value"]) for r in rows if r["kind"] == "coefficient"]
        assert coeffs[0] == pytest.approx(1.0, abs=1e-10)
        assert all(abs(c) <= 1e-10 for c in coeffs[1:])
        sup = next(float(r["value"]) for r in rows if r["kind"] == "sup_error")
        assert sup <= 1e-10

    def test_zero_bound_serialized_as_empty_ratio(self, capsys):
        # degree-1 admissible at 24 nodes; the constant's second
        # derivative vanishes so the bound is exactly zero
        code, out, _ = run_cli(
            ["fit", "--function", "const1", "--alpha", "0", "--nodes", "24", "--n", "1"], capsys
        )
        assert code == 0
        rows = {r["kind"]: r["value"] for r in csv_rows(out) if r["k"] == ""}
        assert rows["bound"] == "0.0"
        assert rows["ratio"] == ""

    def test_zero_bound_json_still_renders(self, capsys):
        code, out, _ = run_cli(
            [
                "fit", "--function", "const1", "--alpha", "0",
                "--nodes", "24", "--n", "1", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        cells = {r["kind"]: r["value"] for r in payload["rows"] if r["k"] is None}
        assert cells["bound"] == 0.0
        assert cells["ratio"] is None

    def test_uncertified_function_has_empty_bound(self, capsys):
        code, out, _ = run_cli(
            ["fit", "--function", "runge", "--alpha", "0", "--nodes", "20", "--n", "2"], capsys
        )
        assert code == 0
        rows = {r["kind"]: r["value"] for r in csv_rows(out) if r["k"] == ""}
        assert rows["bound"] == ""
        assert rows["ratio"] == ""
        assert float(rows["sup_error"]) > 0

    def test_smooth_fit_within_bound(self, capsys):
        code, out, _ = run_cli(
            ["fit", "--function", "exp", "--alpha", "0", "--nodes", "40", "--n", "4"], capsys
        )
        assert code == 0
        rows = {r["kind"]: r["value"] for r in csv_rows(out) if r["k"] == ""}
        assert float(rows["ratio"]) <= 1.0
        assert float(rows["sup_error"]) <= float(rows["bound"])


class TestBoundsCommand:
    def test_sweep_row_content(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--alpha", "0", "--n-range", "0..4", "--node-rule", "c4"], capsys
        )
        assert code == 0
        rows = csv_rows(out)
        assert [r["n"] for r in rows] == ["0", "1", "2", "3", "4"]
        r1 = rows[1]
        assert r1["N"] == "4"
        assert r1["hypothesis_ok"] == "1"
        assert float(r1["D"]) == 0.25
        assert float(r1["ratio"]) == 0.75

    def test_inadmissible_degree_has_empty_constant(self, capsys):
        code, out, _ = run_cli(["bounds", "--alpha", "0", "--n", "6", "--nodes", "10"], capsys)
        assert code == 0
        row = csv_rows(out)[0]
        assert row["hypothesis_ok"] == "0"
        assert row["D"] == ""
        assert float(row["C"]) > 0


class TestSharpnessCommand:
    def test_small_case_values(self, capsys):
        code, out, _ = run_cli(["sharpness", "--alpha", "0", "--n", "1", "--nodes", "4"], capsys)
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["measured"]) == pytest.approx(0.25, rel=1e-12)
        assert float(row["bound"]) == 0.25
        assert float(row["rel_gap"]) <= 1e-8

    @pytest.mark.parametrize(
        "name,args",
        [
            ("sharpness_n0_N4_a0.csv", ["sharpness", "--alpha", "0", "--n", "0", "--nodes", "4"]),
            ("sharpness_n1_N4_a0.csv", ["sharpness", "--alpha", "0", "--n", "1", "--nodes", "4"]),
            ("sharpness_n2_N12_a0.csv", ["sharpness", "--alpha", "0", "--n", "2", "--nodes", "12"]),
            ("sharpness_n1_N8_a1.csv", ["sharpness", "--alpha", "1", "--n", "1", "--nodes", "8"]),
            (
                "sharpness_n3_N40_a05.csv",
                ["sharpness", "--alpha", "0.5", "--n", "3", "--nodes", "40"],
            ),
        ],
    )
    def test_matches_golden(self, name, args, capsys):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")

    def test_wrong_constant_exits_unstable(self, monkeypatch, capsys):
        # the witness and the bound share D, so measured / bound cannot see
        # a wrong D; the witness checks it against the recurrence instead
        exact = bounds.worst_case_constant
        monkeypatch.setattr(
            bounds, "worst_case_constant", lambda n, N, alpha: exact(n, N, alpha) * (1 + 1e-6)
        )
        args = ["sharpness", "--alpha", "0.5", "--n", "3", "--nodes", "40"]
        code, out, err = run_cli(args, capsys)
        assert code == 4
        assert out == ""
        assert len(err.splitlines()) == 1 and "witness scale" in err

    def test_gap_past_tolerance_exits_unstable_after_the_rows(self, monkeypatch, capsys):
        exact = lsq.sup_error

        def widened(f, a, bound=None):
            report = exact(f, a, bound)
            return lsq.ErrorReport(report.sup_error * (1 + 1e-6), report.argmax)

        monkeypatch.setattr(lsq, "sup_error", widened)
        args = ["sharpness", "--alpha", "0.5", "--n", "3", "--nodes", "40"]
        code, out, err = run_cli(args, capsys)
        assert code == 4
        (row,) = csv_rows(out)
        assert float(row["rel_gap"]) == pytest.approx(1e-6, rel=1e-6)
        assert err.splitlines()[-1].startswith("numerical instability: sharpness gap 1.000e-06")


class TestConvergenceCommand:
    @pytest.mark.parametrize(
        "alpha,nodes",
        # n+1 > N, where D is undefined, and alpha = -1/2, where the degree
        # threshold is undefined
        [("0", "3"), ("-0.5", "30")],
        ids=["n-plus-1-above-N", "alpha-minus-half"],
    )
    def test_bound_cells_that_do_not_apply_are_empty_as_in_fit(self, alpha, nodes, capsys):
        common = ["--function", "exp", "--alpha", alpha, "--nodes", nodes, "--n", "3"]
        code, out, _ = run_cli(["convergence", *common], capsys)
        assert code == 0
        assert csv_rows(out)[0]["bound"] == ""
        code, out, _ = run_cli(["fit", *common], capsys)
        assert code == 0
        assert {r["kind"]: r["value"] for r in csv_rows(out)}["bound"] == ""

    def test_matches_golden(self, capsys):
        code, out, _ = run_cli(
            ["convergence", "--function", "exp", "--alpha", "0", "--node-rule", "c4",
             "--n-range", "1..8"],
            capsys,
        )
        assert code == 0
        assert out == (GOLDEN / "convergence_exp_c4_a0_n1_8.csv").read_text(encoding="utf-8")

    def test_errors_decay_and_respect_bounds(self, capsys):
        _, out, _ = run_cli(
            ["convergence", "--function", "exp", "--alpha", "0", "--node-rule", "c4",
             "--n-range", "1..8"],
            capsys,
        )
        rows = csv_rows(out)
        sups = [float(r["sup_error"]) for r in rows]
        assert all(a > b for a, b in zip(sups, sups[1:]))
        for r in rows:
            assert float(r["sup_error"]) <= float(r["bound"]) * (1 + 1e-8)
            assert float(r["class_K_defect"]) > 0

    def test_uncertified_function_rejected(self, capsys):
        code, _, err = run_cli(
            ["convergence", "--function", "runge", "--alpha", "0", "--n-range", "1..3"], capsys
        )
        assert code == 2


class TestCompareCommand:
    def test_matches_golden(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--alpha", "0", "--n-range", "1..20", "--node-rule", "c4"], capsys
        )
        assert code == 0
        assert out == (GOLDEN / "compare_c4_a0_n1_20.csv").read_text(encoding="utf-8")

    def test_default_two_regime_sweep(self, capsys):
        code, out, _ = run_cli(["compare", "--alpha", "0", "--n-range", "2..20"], capsys)
        assert code == 0
        rows = csv_rows(out)
        assert [r["rule"] for r in rows[:2]] == ["nsq10", "ncube"]
        cube = {int(r["n"]): float(r["ratio"]) for r in rows if r["rule"] == "ncube"}
        # cubic node growth drives the grid factor to 1 like 1/(2n)
        gaps = [(1 - cube[n]) * 2 * n for n in (10, 15, 20)]
        for g in gaps:
            assert 0.9 <= g <= 1.2
        # quadratic growth pins it near exp(-1/20) instead
        quad = {int(r["n"]): float(r["ratio"]) for r in rows if r["rule"] == "nsq10"}
        assert abs(quad[20] - math.exp(-1 / 20)) <= 3e-3
        assert abs(quad[20] - 1.0) > 0.04


class TestEmission:
    def test_csv_and_json_carry_identical_numbers(self, capsys):
        args = ["sharpness", "--alpha", "0", "--n", "1", "--nodes", "4"]
        _, csv_out, _ = run_cli(args, capsys)
        _, json_out, _ = run_cli(args + ["--format", "json"], capsys)
        crow = csv_rows(csv_out)[0]
        jrow = json.loads(json_out)["rows"][0]
        for key in ("measured", "bound", "rel_gap"):
            assert float(crow[key]) == jrow[key]

    def test_json_config_echo(self, capsys):
        _, out, _ = run_cli(
            ["compare", "--alpha", "0.5", "--n", "3", "--nodes", "40", "--format", "json"],
            capsys,
        )
        payload = json.loads(out)
        assert payload["config"]["command"] == "compare"
        assert payload["config"]["alpha"] == 0.5
        assert payload["config"]["nodes"] == 40
        assert "seed" not in payload["config"]
        assert payload["columns"] == ["rule", "n", "N", "D", "C", "ratio"]

    def test_out_file_bytes(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            ["sharpness", "--alpha", "0", "--n", "1", "--nodes", "4", "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")
        assert data == (GOLDEN / "sharpness_n1_N4_a0.csv").read_bytes()

    def test_repeat_runs_are_identical(self, capsys):
        args = ["convergence", "--function", "sin4", "--alpha", "0.5", "--node-rule", "c3",
                "--n-range", "1..6"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_subprocess_determinism(self, tmp_path):
        # the child imports the same checkout as this process
        paths = [str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        cmd = [sys.executable, "-m", "hahn_lsq", "compare", "--alpha", "1",
               "--n-range", "1..6", "--node-rule", "c3"]
        runs = [
            subprocess.run(cmd, capture_output=True, check=True, env=env).stdout for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert b"\r" not in runs[0]
