import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from hahn_lsq import bounds, cli, errors, hahn, lsq, registry

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_RUNS = [
    ("sharpness_n0_N4_a0.csv", ["sharpness", "--alpha", "0", "--n", "0", "--nodes", "4"]),
    ("sharpness_n1_N4_a0.csv", ["sharpness", "--alpha", "0", "--n", "1", "--nodes", "4"]),
    ("sharpness_n2_N12_a0.csv", ["sharpness", "--alpha", "0", "--n", "2", "--nodes", "12"]),
    ("sharpness_n1_N8_a1.csv", ["sharpness", "--alpha", "1", "--n", "1", "--nodes", "8"]),
    ("sharpness_n3_N40_a05.csv", ["sharpness", "--alpha", "0.5", "--n", "3", "--nodes", "40"]),
    (
        "compare_c4_a0_n1_20.csv",
        ["compare", "--alpha", "0", "--n-range", "1..20", "--node-rule", "c4"],
    ),
    (
        "convergence_exp_c4_a0_n1_8.csv",
        ["convergence", "--function", "exp", "--alpha", "0", "--node-rule", "c4",
         "--n-range", "1..8"],
    ),
]

# README's shell examples, with any --format dropped
README_EXAMPLES = [
    [arg for arg in line.split()[1:] if arg not in ("--format", "json")]
    for line in (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines()
    if line.startswith("hahn-lsq ") and "<" not in line and "--out" not in line
]
# one op of each command the benchmark's workloads run (bench/workloads.py)
WORKLOAD_OPS = [
    ["convergence", "--function", "sin3", "--alpha", "0.5", "--n", "17"],
    ["sharpness", "--alpha", "2.0", "--n", "11"],
    ["fit", "--function", "runge", "--alpha", "0.6243", "--nodes", "5074", "--n", "50"],
    ["fit", "--function", "exp", "--alpha", "1.2262", "--beta", "0.3097", "--nodes", "3233",
     "--n", "40"],
    ["bounds", "--alpha", "3.0", "--n-range", "106..140"],
    ["compare", "--alpha", "1.0", "--n-range", "36..70"],
    ["basis", "--alpha", "0.5", "--nodes", "400", "--n", "20"],
]

# sup|f^(30)| = 30! 1e300 overflows a double
POLY_1E300 = "poly:" + "0," * 30 + "1e300"
SIN_1E20 = "sin1" + "0" * 20


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

    @pytest.mark.parametrize(
        "name, coefficients",
        [
            ("const1", [1.0]),
            ("linear", [0.0, 1.0]),
            ("poly:0.5,-1.5,0.25,2.0", [0.5, -1.5, 0.25, 2.0]),
        ],
    )
    def test_polynomial_values_match_a_numpy_polynomial(self, name, coefficients):
        # Horner's sums by polyval, bit for bit and type for type, as a
        # Polynomial object on its default domain computes them
        f = registry.resolve(name)
        reference = np.polynomial.Polynomial(coefficients)
        grid = np.linspace(-1.0, 1.0, 841)
        assert f.evaluator(grid).tobytes() == reference(grid).tobytes()
        for t in (0.3183098861837907, -0.0, 1.0, -1.0):
            value = f.evaluator(t)
            assert type(value) is type(reference(t))
            assert np.array([value]).tobytes() == np.array([reference(t)]).tobytes()

    @pytest.mark.parametrize("coefficients", [[1.0, math.inf], [math.nan], [-math.inf, 0.0]])
    def test_polynomial_refuses_a_non_finite_coefficient(self, coefficients):
        with pytest.raises(errors.ParameterError, match="coefficients must be finite"):
            registry.polynomial_function(coefficients)

    def test_polynomial_refuses_no_coefficients(self):
        with pytest.raises(errors.ParameterError, match="needs at least one coefficient"):
            registry.polynomial_function([])

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
        config = cli.build_parser().parse_args(["bounds"])
        with pytest.raises(errors.ParameterError):
            cli._degrees(config)

    def test_range_expansion(self):
        config = cli.build_parser().parse_args(["bounds", "--n-range", "2..5"])
        assert cli._degrees(config) == [2, 3, 4, 5]

    def test_beta_defaults_to_alpha(self):
        config = cli.build_parser().parse_args(["basis", "--alpha", "0.5"])
        assert cli._params(config, 6).beta == 0.5

    @pytest.mark.parametrize(
        "option,value", [("--alpha", "-5e-08"), ("--beta", "-1e-05"), ("--alpha", "-1E-5")]
    )
    def test_negative_exponent_is_read_as_a_number(self, option, value, capsys):
        # argparse alone reads a lone -5e-08 as an option and exits 2
        args = ["basis", option, value, "--nodes", "4", "--n", "1", "--format", "json"]
        code, out, err = run_cli(args, capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["config"][option[2:]] == float(value)

    def test_node_count_past_the_cap_is_a_configuration_error(self, capsys):
        args = ["fit", "--function", "exp", "--nodes", str(cli.MAX_NODES + 1), "--n", "1"]
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"configuration error: grid of N={cli.MAX_NODES + 1} nodes")

    def test_c3_node_count_near_alpha_minus_half_is_refused_before_a_grid(self):
        # c3 grows like 2n^2 / (2 alpha + 1): 1.6e10 nodes here, which the
        # grid, its samples and its weight could never hold
        config = cli.build_parser().parse_args(
            ["sharpness", "--alpha", "-0.4999999", "--n", "40", "--node-rule", "c3"]
        )
        N = cli._resolve_nodes(config, 40)
        assert N == 16000000080
        with pytest.raises(errors.ParameterError, match="exceeds the limit"):
            cli._params(config, N)
        assert cli._params(config, cli.MAX_NODES).N == cli.MAX_NODES

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
            (["bounds", "--alpha", "abc", "--n", "2"], 2,
             "hahn-lsq: error: argument --alpha: expected a finite number, got 'abc'"),
            (["bounds", "--n-range", "5"], 2,
             "hahn-lsq: error: argument --n-range: expected A..B, got '5'"),
            (["bounds", "--n-range", "a..b"], 2,
             "hahn-lsq: error: argument --n-range: expected integers in A..B, got 'a..b'"),
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
            "bounds-alpha-not-a-number",
            "bounds-n-range-one-part",
            "bounds-n-range-not-integers",
            "fit-witness-scale-underflow",
        ],
    )
    def test_unusable_input_exits_with_documented_code(self, args, status, prefix, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == status
        assert err.splitlines()[-1].startswith(prefix)
        assert "nan" not in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "args,status,message",
        [
            (["convergence", "--function", POLY_1E300, "--alpha", "0", "--n", "29"], 4,
             "numerical instability: an output cell is inf or nan"),
            (["fit", "--function", POLY_1E300, "--alpha", "0", "--nodes", "1740", "--n", "29"], 4,
             "numerical instability: an output cell is inf or nan"),
            (["convergence", "--function", "exp", "--alpha", "1000", "--n", "30"], 4,
             "numerical instability: class_K_defect of exp at n=30 overflows"),
            (["fit", "--function", SIN_1E20, "--alpha", "0", "--nodes", "1860", "--n", "30"], 4,
             f"numerical instability: bound at n=30: sup|f^(31)| of {SIN_1E20} overflows"),
            (["bounds", "--alpha", "0", "--beta", "3", "--n", "2"], 2,
             "configuration error: bounds requires alpha = beta, got alpha=0.0, beta=3.0"),
            (["bounds", "--alpha", "0", "--n", "2", "--function", "exp"], 2,
             "configuration error: bounds takes no --function, got 'exp'"),
            (["bounds", "--alpha", "-0.6", "--n", "2"], 2,
             "configuration error: node thresholds defined for alpha > -1/2, got -0.6"),
            (["sharpness", "--alpha", "0", "--n", "1", "--nodes", "4", "--function", "runge"], 2,
             "configuration error: sharpness takes no --function, got 'runge'"),
            (["compare", "--alpha", "0", "--n", "2", "--function", "exp"], 2,
             "configuration error: compare takes no --function, got 'exp'"),
            (["basis", "--alpha", "0", "--nodes", "4", "--n", "1", "--function", "sin1"], 2,
             "configuration error: basis takes no --function, got 'sin1'"),
            (["basis", "--alpha", "0", "--n", "2"], 2, "configuration error: basis requires --nodes"),
            (["basis", "--alpha", "0", "--nodes", "4"], 2, "configuration error: basis requires --n"),
            (["fit", "--function", "exp", "--n", "2"], 2,
             "configuration error: fit requires --nodes"),
            # alpha = beta is checked before the missing --function
            (["convergence", "--alpha", "0", "--beta", "1", "--n", "2"], 2,
             "configuration error: convergence requires alpha = beta, got alpha=0.0, beta=1.0"),
            # the input is at fault, as with --alpha nan, not the arithmetic
            (["fit", "--function", "poly:nan", "--nodes", "10", "--n", "2"], 2,
             "configuration error: polynomial coefficients must be finite, got [nan]"),
            (["fit", "--function", "poly:1,inf", "--nodes", "10", "--n", "2"], 2,
             "configuration error: polynomial coefficients must be finite, got [1.0, inf]"),
            (["fit", "--function", "poly:1e309", "--nodes", "10", "--n", "2"], 2,
             "configuration error: polynomial coefficients must be finite, got [inf]"),
            (["fit", "--function", "poly:1,x", "--nodes", "10", "--n", "2"], 2,
             "configuration error: bad polynomial coefficient list in 'poly:1,x': "
             "could not convert string to float: 'x'"),
        ],
        ids=["infinite-convergence-cells", "infinite-fit-bound", "overflowing-defect",
             "overflowing-derivative-bound", "bounds-beta", "bounds-function", "bounds-alpha",
             "sharpness-function", "compare-function", "basis-function", "basis-nodes",
             "basis-n", "fit-nodes", "convergence-beta-before-function", "poly-nan",
             "poly-inf", "poly-overflowing-literal", "poly-not-a-number"],
    )
    def test_unusable_input_exits_with_one_line_and_no_table(
        self, args, status, message, fmt, capsys
    ):
        code, out, err = run_cli(args + ["--format", fmt], capsys)
        assert (code, out) == (status, "")
        assert err.splitlines() == [message]

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
            ["basis", "--alpha", "5.225", "--beta", "1.1485509557702915e+17", "--nodes", "200",
             "--n", "32"],
            ["fit", "--function", "poly:1e308,1e308", "--n", "1", "--nodes", "10"],
            ["fit", "--function", "poly:1e308", "--n", "1", "--nodes", "10"],
            ["fit", "--function", "exp", "--alpha", "1e100", "--beta", "0.5", "--nodes", "1000",
             "--n", "5"],
        ],
        ids=["basis-alpha-150", "basis-h0-overflows", "fit-infinite-samples",
             "fit-sum-overflows", "fit-norm-ratio-underflows"],
    )
    def test_overflow_is_reported_once(self, args, capsys):
        # basis prints the raw weights and norms, which overflow here (the
        # second run's h_0 does, and must raise before its table warns); the
        # first fit's target is inf at t = 1, the second one's finite
        # samples sum past the double range in the projection, and the
        # third one's norm ratio h_4 / h_0 underflows to zero, so the
        # projection divides by it.  numpy's RuntimeWarning must not print
        # ahead of the one line that reports it
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


# each registry family, two targets whose derivative bounds overflow a
# double, and two extremal witnesses
DOMAIN_FUNCTIONS = ("const1", "linear", "exp", "runge", "sin1", "sin7", "poly:1,-2,0.5",
                    POLY_1E300, SIN_1E20, "extremal:2", "extremal:20")
# alpha and beta across the documented domain: (-1, 10] and 10^0 .. 10^300
DOMAIN_PARAMETERS = st.floats(-0.999, 10.0) | st.floats(0.0, 300.0).map(lambda e: 10.0**e)
PREFIXES = ("configuration error: ", "threshold violation: ", "numerical instability: ")


@st.composite
def domain_argvs(draw):
    """An argv of any command with options from the documented domain,
    inside the validated n <= 40, N <= 10^4 (past it a
    NumericalRangeWarning is the documented output).  One draw in eight
    leaves out an option the command needs or adds one it refuses."""

    def rarely():
        return draw(st.integers(0, 7)) == 0

    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    alpha = draw(DOMAIN_PARAMETERS)
    argv = [command, "--alpha", repr(alpha), "--format", draw(st.sampled_from(("csv", "json")))]
    if command in ("basis", "fit") or rarely():
        argv += ["--beta", repr(draw(DOMAIN_PARAMETERS))]
    # the sharpness witness has degree n + 1
    n = None if rarely() else draw(st.integers(0, 39 if command == "sharpness" else 40))
    if n is not None:
        argv += ["--n", str(n)]
    rule = None
    if command in ("basis", "fit") or draw(st.booleans()):
        if not rarely():
            argv += ["--nodes", str(draw(st.integers(1, 400 if command == "basis" else 3000)))]
    elif command != "compare" or draw(st.booleans()):
        rule = draw(st.sampled_from(("c3", "c4")))
        argv += ["--node-rule", rule]
    # fit and convergence take --function, the other commands refuse it
    if (command in ("fit", "convergence")) != rarely():
        argv += ["--function", draw(st.sampled_from(DOMAIN_FUNCTIONS))]
    if rule == "c3" and n is not None and alpha > -0.5 and command in ("sharpness", "convergence"):
        # c3 grows like 2n^2 / (2 alpha + 1), past 10^4 near alpha = -1/2
        assume(bounds.min_nodes(n, alpha)[0] <= hahn.MAX_VALIDATED_NODES)
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(domain_argvs())
def test_every_domain_argv_exits_with_a_documented_outcome(argv):
    # pytest turns a RuntimeWarning or NumericalRangeWarning into a failure
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert len(err.splitlines()) == 1 and err.startswith(PREFIXES), err
        return
    assert err == ""
    if out.startswith("{"):
        cells = [value for row in json.loads(out)["rows"] for value in row.values()]
    else:
        cells = [cell for line in out.splitlines()[1:] for cell in line.split(",")]
    for cell in cells:
        try:
            value = float(cell)
        except (TypeError, ValueError):  # an empty or null cell, or a name
            continue
        assert math.isfinite(value), cell


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

    def test_residuals_are_the_normalized_inner_products(self, capsys):
        # the command sums all <Q_j, Q_k>, k > j, from one product per j
        params = hahn.HahnParams(0.5, 0.5, 40)
        code, out, _ = run_cli(["basis", "--alpha", "0.5", "--nodes", "40", "--n", "6"], capsys)
        assert code == 0
        w = hahn.DiscreteWeight.from_params(params)
        table = hahn.hahn_table(6, np.arange(41, dtype=float), params)
        norms = [hahn.hahn_norm_sq(k, params) for k in range(7)]
        got = {
            (int(r["deg"]), int(r["idx"])): float(r["value"])
            for r in csv_rows(out)
            if r["kind"] == "ortho_residual"
        }
        assert len(got) == 21
        for (j, k), residual in got.items():
            expected = oracles.inner_product(table[j], table[k], w) / math.sqrt(norms[j] * norms[k])
            assert residual == expected


def normalized_rows(args, capsys):
    """{k: values at idx 0..N} of the normalized rows of a basis run,
    hatQ_k(t_i) = (-1)^k Q_k(i) / sqrt(h_k) at t_i = 2i/N - 1."""
    code, out, _ = run_cli(["basis"] + args, capsys)
    assert code == 0
    values = {}
    for r in csv_rows(out):
        if r["kind"] == "normalized":
            values.setdefault(int(r["deg"]), []).append(float(r["value"]))
    return {k: np.array(v) for k, v in values.items()}


class TestNormalizedRows:
    def test_degree_zero_value(self, capsys):
        for N in (2, 9):
            rows = normalized_rows(["--alpha", "0", "--nodes", str(N), "--n", "0"], capsys)
            assert rows[0] == pytest.approx([1 / math.sqrt(N + 1)] * (N + 1), rel=1e-13)

    def test_degree_one_endpoint(self, capsys):
        # hatQ_1(1) = -Q_1(2; 0, 0, 2)/sqrt(2) = 1/sqrt(2)
        rows = normalized_rows(["--alpha", "0", "--nodes", "2", "--n", "1"], capsys)
        assert rows[1][-1] == pytest.approx(1 / math.sqrt(2), rel=1e-13)

    def test_unit_norm_under_grid_sum(self, capsys):
        w = hahn.DiscreteWeight.from_params(hahn.HahnParams(1.0, 1.0, 10))
        rows = normalized_rows(["--alpha", "1", "--nodes", "10", "--n", "3"], capsys)
        for k in range(4):
            assert oracles.inner_product(rows[k], rows[k], w) == pytest.approx(1.0, rel=1e-12)

    def test_endpoint_is_sup_below_threshold(self, capsys):
        # on the nodes from the command, and between them from the table
        p = hahn.HahnParams(0.5, 0.5, 40)
        n = int(bounds.degree_threshold(0.5, 40))
        rows = normalized_rows(["--alpha", "0.5", "--nodes", "40", "--n", str(n)], capsys)
        xs = 20.0 * (1.0 + np.linspace(-1.0, 1.0, 2001))
        table = hahn.hahn_table(n, xs, p)
        for k in range(n + 1):
            endpoint = rows[k][-1]
            assert endpoint > 0
            assert np.max(np.abs(rows[k])) <= endpoint + 1e-10
            dense = np.abs(table[k]) / math.sqrt(hahn.hahn_norm_sq(k, p))
            assert np.max(dense) <= endpoint + 1e-10


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

    def test_huge_alpha_needs_the_cancelling_constant(self, capsys):
        # n(1e16, 10) is 6, so degree 4 needs D, and C_4 refuses at 1e16;
        # a cancelled threshold of 4.0 used to print an empty bound instead
        args = ["fit", "--function", "exp", "--alpha", "1e16", "--nodes", "10", "--n", "4"]
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (4, "")
        assert err.startswith("numerical instability: C_4 at alpha=1e+16: cancelling log terms")
        assert len(err.splitlines()) == 1

    def test_failed_hypothesis_leaves_the_bound_empty_before_C(self, capsys):
        # degree 8 needs N >= c3 = 17 at alpha = 1e5, so no bound applies and
        # C_8, which cancels there, is never asked for
        args = ["fit", "--function", "exp", "--alpha", "1e5", "--nodes", "10", "--n", "8"]
        code, out, err = run_cli(args, capsys)
        assert (code, err) == (0, "")
        rows = {r["kind"]: r["value"] for r in csv_rows(out) if r["k"] == ""}
        assert rows["bound"] == ""
        assert float(rows["sup_error"]) > 0


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

    def test_degree_past_the_grid_has_empty_constant_and_ratio(self, capsys):
        code, out, err = run_cli(["bounds", "--alpha", "0", "--nodes", "2", "--n", "5"], capsys)
        assert (code, err) == (0, "")
        (row,) = csv_rows(out)
        assert row["hypothesis_ok"] == "0"
        assert (row["D"], row["ratio"]) == ("", "")
        assert float(row["threshold"]) == bounds.degree_threshold(0.0, 2)
        assert float(row["C"]) > 0

    def test_grid_below_c3_fails_the_hypothesis(self, capsys):
        # alpha = 0.3 is a double below 3/10, so n(alpha, 9) falls just
        # short of 3, though it prints as 3.0
        code, out, _ = run_cli(["bounds", "--alpha", "0.3", "--nodes", "9", "--n", "2"], capsys)
        assert code == 0
        (row,) = csv_rows(out)
        assert (row["threshold"], row["node_min_c3"]) == ("3.0", "10")
        assert (row["hypothesis_ok"], row["D"]) == ("0", "")


class TestConstantTables:
    """`bounds` and `compare` print cells of one row builder."""

    @pytest.mark.parametrize("alpha", ["-0.25", "0", "0.5", "3"])
    @pytest.mark.parametrize(
        "command,options",
        [
            ("bounds", ["--node-rule", "c3"]),
            ("bounds", ["--nodes", "300"]),
            ("compare", []),
            ("compare", ["--node-rule", "c3"]),
        ],
    )
    def test_constant_is_the_printed_product(self, command, options, alpha, capsys):
        args = [command, "--alpha", alpha, "--n-range", "1..40", *options]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        rows = [row for row in csv_rows(out) if row["D"]]
        assert rows
        for row in rows:
            assert float(row["D"]) == float(row["C"]) * float(row["ratio"])

    @pytest.mark.parametrize("alpha", ["-0.25", "0", "0.5", "3"])
    def test_compare_and_bounds_print_the_same_continuous_constant(self, alpha, capsys):
        columns = {}
        for command in ("bounds", "compare"):
            code, out, _ = run_cli([command, "--alpha", alpha, "--n-range", "1..60"], capsys)
            assert code == 0
            columns[command] = {row["n"]: row["C"] for row in csv_rows(out)}
        assert columns["compare"] == columns["bounds"]

    @pytest.mark.parametrize("command", ["bounds", "compare"])
    def test_cancelling_continuous_constant_exits_unstable(self, command, capsys):
        code, out, err = run_cli([command, "--alpha", "1e200", "--n", "2"], capsys)
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("numerical instability: C_2 at alpha=1e+200")

    def test_large_alpha_below_the_guard_is_printed(self, capsys):
        code, out, err = run_cli(["compare", "--alpha", "1e4", "--n", "2"], capsys)
        assert (code, err) == (0, "")
        # C_2(alpha) = (4/3) (alpha+1)(alpha+2)(alpha+3) / ((2alpha+4)(2alpha+5)(2alpha+6))
        for row in csv_rows(out):
            assert float(row["C"]) == pytest.approx(10001 / 10002.5 / 6, rel=1e-9)

    def test_simplified_constant_alone_underflowing_is_an_empty_cell(self, capsys):
        # n^alpha / (Gamma(alpha+1) 4^alpha) underflows at alpha = 1e4, n = 2,
        # while C, D and the grid factor of the row are normal
        with pytest.raises(errors.InstabilityError, match="simplified constant"):
            bounds.simplified_constant(2, 1e4)
        code, out, err = run_cli(["bounds", "--alpha", "1e4", "--n", "2"], capsys)
        assert (code, err) == (0, "")
        (row,) = csv_rows(out)
        assert row["simplified"] == ""
        assert float(row["C"]) == pytest.approx(10001 / 10002.5 / 6, rel=1e-9)
        assert float(row["D"]) == float(row["C"]) * float(row["ratio"])

    def test_compare_rejects_an_empty_grid(self, capsys):
        # the default sweep puts n = 0 on N = 10 n^2 = 0 nodes
        code, out, err = run_cli(["compare", "--alpha", "0", "--n", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == "configuration error: grid size must be >= 1, got 0\n"


class TestSharpnessCommand:
    def test_small_case_values(self, capsys):
        code, out, _ = run_cli(["sharpness", "--alpha", "0", "--n", "1", "--nodes", "4"], capsys)
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["measured"]) == pytest.approx(0.25, rel=1e-12)
        assert float(row["bound"]) == 0.25
        assert float(row["rel_gap"]) <= 1e-8

    @pytest.mark.parametrize(
        "name,args", [run for run in GOLDEN_RUNS if run[0].startswith("sharpness")]
    )
    def test_matches_golden(self, name, args, capsys):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")

    def test_c3_rule_grid_admits_the_degree(self, capsys):
        code, out, err = run_cli(
            ["sharpness", "--alpha", "0.1", "--node-rule", "c3", "--n", "18"], capsys
        )
        assert (code, err) == (0, "")
        (row,) = csv_rows(out)
        assert int(row["N"]) == bounds.min_nodes(18, 0.1)[0] == 576
        assert float(row["rel_gap"]) <= 1e-8

    def test_degree_past_the_grid_is_a_threshold_violation(self, capsys):
        code, out, err = run_cli(["sharpness", "--alpha", "0", "--n", "5", "--nodes", "3"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("threshold violation: degree hypothesis violated: n+1=6 ")

    def test_threshold_violation_precedes_a_cancelling_constant(self, capsys):
        args = ["sharpness", "--alpha", "1e5", "--nodes", "10", "--n", "8"]
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (3, "")
        assert err.startswith("threshold violation: degree hypothesis violated: n+1=9 ")
        assert "N=10 < c3=17" in err

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

    @pytest.mark.parametrize(
        "alpha,n,nodes",
        [(a[2], int(a[4]), a[6]) for name, a in GOLDEN_RUNS if name.startswith("sharpness")]
        + [(alpha, n, str(2 * n * (n + 1))) for alpha in ("0", "0.5", "2") for n in range(1, 6)],
    )
    def test_bound_is_the_bound_fit_prints_for_the_witness(self, alpha, n, nodes, capsys):
        common = ["--alpha", alpha, "--nodes", nodes, "--n", str(n)]
        code, out, _ = run_cli(["sharpness", *common], capsys)
        assert code == 0
        (row,) = csv_rows(out)
        code, out, _ = run_cli(["fit", "--function", f"extremal:{n}", *common], capsys)
        assert code == 0
        fit = {r["kind"]: r["value"] for r in csv_rows(out)}
        assert row["bound"] == fit["bound"] != ""
        assert row["measured"] == fit["sup_error"]

    def test_gap_past_tolerance_exits_unstable_after_the_rows(
        self, monkeypatch, tmp_path, capsys
    ):
        exact = lsq.sup_error

        def widened(f, a, bound=None):
            report = exact(f, a, bound)
            return dataclasses.replace(report, sup_error=report.sup_error * (1 + 1e-6))

        monkeypatch.setattr(lsq, "sup_error", widened)
        args = ["sharpness", "--alpha", "0.5", "--n", "3", "--nodes", "40"]
        target = tmp_path / "x.csv"
        for extra in ([], ["--out", str(target)], ["--format", "json"]):
            code, out, err = run_cli(args + extra, capsys)
            assert code == 4
            gap_line = err.splitlines()[-1]
            assert gap_line.startswith("numerical instability: sharpness gap 1.000e-06")
            if "--out" in extra:
                assert out == ""
                out = target.read_text(encoding="utf-8")
            (row,) = json.loads(out)["rows"] if "json" in extra else csv_rows(out)
            assert float(row["rel_gap"]) == pytest.approx(1e-6, rel=1e-6)


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

    @pytest.mark.parametrize("name,args", GOLDEN_RUNS)
    def test_json_table_is_the_csv_table(self, name, args, capsys):
        _, csv_out, _ = run_cli(args, capsys)
        _, json_out, _ = run_cli(args + ["--format", "json"], capsys)
        lines = csv_out.splitlines()
        payload = json.loads(json_out)
        assert payload["columns"] == lines[0].split(",")
        assert len(payload["rows"]) == len(lines) - 1
        for row, line in zip(payload["rows"], lines[1:]):
            assert list(row) == payload["columns"]
            assert ["" if v is None else str(v) for v in row.values()] == line.split(",")

    def test_json_config_echo(self, capsys):
        # every option, in the parser's order, with null for those unset
        _, out, _ = run_cli(
            ["--alpha", "0.5", "--format", "json", "compare", "--n-range", "2..3", "--nodes", "40"],
            capsys,
        )
        payload = json.loads(out)
        assert list(payload["config"].items()) == [
            ("command", "compare"),
            ("alpha", 0.5),
            ("beta", None),
            ("n", None),
            ("n_range", [2, 3]),
            ("nodes", 40),
            ("node_rule", None),
            ("function", None),
            ("output_format", "json"),
            ("output_path", None),
        ]
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

    @pytest.mark.parametrize("target", ["missing/table.csv", "."], ids=["missing-dir", "dir"])
    def test_unwritable_out_exits_with_configuration_error(self, target, tmp_path, capsys):
        path = tmp_path / target
        code, out, err = run_cli(
            ["bounds", "--alpha", "0", "--n-range", "1..2", "--out", str(path)], capsys
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"configuration error: cannot write --out {path}: ")

    def test_calls_in_one_process_are_independent(self, tmp_path, capsys):
        # the parser is built once per process: options set by earlier
        # calls, and a rejected call, must not reach later ones
        earlier = [
            (["sharpness", "--alpha", "1", "--beta", "1", "--n", "1", "--nodes", "8"], 0),
            (["compare", "--alpha", "0", "--n", "3", "--nodes", "40", "--format", "json"], 0),
            (["bounds", "--alpha", "0.5", "--n-range", "1..3", "--node-rule", "c3"], 0),
            (["bounds", "--alpha", "0", "--n", "2", "--out", str(tmp_path / "x.csv")], 0),
            (["bounds", "--alpha", "nan", "--n", "2"], 2),
        ]
        for args, status in earlier:
            assert run_cli(args, capsys)[0] == status
        for name, args in GOLDEN_RUNS:
            code, out, err = run_cli(args, capsys)
            assert (code, err) == (0, "")
            assert out == (GOLDEN / name).read_text(encoding="utf-8"), name
        assert cli.build_parser() is not cli.build_parser()

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

    def test_closed_pipe_exits_quietly(self):
        # about 600 KB, more than a pipe holds: the child is still writing
        # when the reader closes the pipe after the first line
        paths = [str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        cmd = [sys.executable, "-m", "hahn_lsq", "basis", "--alpha", "0.5", "--nodes", "400",
               "--n", "20"]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline() == b"kind,deg,idx,value\n"
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert code == cli.CLOSED_PIPE_EXIT == 141
        assert err == b""  # no traceback

    @pytest.mark.parametrize("args", README_EXAMPLES + WORKLOAD_OPS, ids=" ".join)
    def test_json_is_what_json_dumps_prints(self, args, capsys):
        # the rows are assembled by hand; a round trip through json must
        # give back the same bytes, and each format must be the bytes of a
        # one-shot render of the command's own rows.  basis at N = 400
        # crosses 35 chunk boundaries, so folding a column must not depend
        # on where a chunk starts.  fit-large's fits past n = 40 warn that
        # they leave the validated range
        config = cli.build_parser().parse_args(args + ["--format", "json"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", errors.NumericalRangeWarning)
            code, out, err = run_cli(args + ["--format", "json"], capsys)
            columns, rows, _ = cli._COMMANDS[config.command](config)
        rows = list(rows)
        assert (code, err) == (0, "")
        assert json.dumps(json.loads(out), allow_nan=False) + "\n" == out
        assert out == one_shot_json(config, columns, rows)
        assert "".join(cli.render_csv(columns, iter(rows))) == one_shot_csv(columns, rows)


def one_shot_csv(columns, rows):
    lines = [",".join(columns)] + [",".join(map(cli._format_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def one_shot_json(config, columns, rows):
    payload = {
        "config": vars(config),
        "columns": columns,
        "rows": [dict(zip(columns, row)) for row in rows],
    }
    return json.dumps(payload, allow_nan=False) + "\n"


def synthetic_rows(count):
    # every kind of cell: str, int, None and floats of both signs
    return [
        (f"r{i}", i, None if i % 3 == 0 else -i, i / 7 - 1e-300 * (i % 5))
        for i in range(count)
    ]


# str cells that json escapes, or that a % or str.format template would read
AWKWARD_TEXT = ('say "hi"', "back\\slash", "bell\x07", "naïve €", "100%", "%s%d", "{}", "{0}",
                "a, b", "inf", "nan")
# floats around the points where repr switches to exponent form
EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e16, 9999999999999998.0, 1e-05, 0.0001, 1e22,
               -1.5e-300, 1.7976931348623157e308)
MIXED_COLUMNS = ("const_str", "const_int", "almost_int", "almost_str", "int_none",
                 "float_none", "all_none", "np_float", "flag", "text", "edge",
                 'folded "%s" {}', "naïve%", "const_flag", "const_np_float")


def mixed_rows(count, chunk):
    # every class of column the renderer tells apart; the almost_ columns
    # are constant except in each chunk's last cell.  Only an exact int or
    # str is folded: a folded True would print True in JSON, not true, and
    # a numpy float's repr is not its float's
    rows = []
    for i in range(count):
        last = (i + 1) % chunk == 0 or i == count - 1
        rows.append((
            "weight", 7, 4 if last else 3, "end" if last else "body",
            None if i % 2 else i, None if i % 3 == 1 else i / 3 - 2.5, None,
            np.float64(i / 7), i % 2 == 0, AWKWARD_TEXT[i % len(AWKWARD_TEXT)],
            EDGE_FLOATS[i % len(EDGE_FLOATS)], "p%d {} \"q\"", -i, True, np.float64(0.5),
        ))
    return rows


class TestChunkedEmission:
    """Tables are rendered a chunk of rows at a time, with the bytes of a
    one-shot render."""

    COLUMNS = ("kind", "deg", "idx", "value")
    CHUNK = cli._CHUNK_ROWS

    @pytest.mark.parametrize(
        "count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7],
        ids=["empty", "one", "chunk-1", "chunk", "chunk+1", "several-chunks"],
    )
    def test_bytes_equal_a_one_shot_render(self, count):
        rows = synthetic_rows(count)
        config = cli.build_parser().parse_args(
            ["basis", "--alpha", "0.5", "--n", "3", "--nodes", "9"]
        )
        chunks = -(-count // self.CHUNK)
        pieces = cli.render_csv(self.COLUMNS, iter(rows))
        assert len(pieces) == 1 + chunks
        assert "".join(pieces) == one_shot_csv(self.COLUMNS, rows)
        pieces = cli.render_json(config, self.COLUMNS, iter(rows))
        # head, the chunks with ", " between them, tail
        assert len(pieces) == 2 + max(2 * chunks - 1, 0)
        text = "".join(pieces)
        assert text == one_shot_json(config, self.COLUMNS, rows)
        assert len(json.loads(text)["rows"]) == count

    @pytest.mark.parametrize(
        "count", [1, 2, CHUNK, CHUNK + 1, 2 * CHUNK + 3],
        ids=["one", "two", "chunk", "chunk+1", "several-chunks"],
    )
    def test_every_class_of_column_gives_one_shot_bytes(self, count):
        rows = mixed_rows(count, self.CHUNK)
        config = cli.build_parser().parse_args(["bounds", "--n", "1"])
        text = "".join(cli.render_csv(MIXED_COLUMNS, iter(rows)))
        assert text == one_shot_csv(MIXED_COLUMNS, rows)
        text = "".join(cli.render_json(config, MIXED_COLUMNS, iter(rows)))
        assert text == one_shot_json(config, MIXED_COLUMNS, rows)

    @pytest.mark.parametrize("count", [1, 3, CHUNK + 1], ids=["one", "three", "chunk+1"])
    @pytest.mark.parametrize("column", range(len(MIXED_COLUMNS)), ids=MIXED_COLUMNS)
    def test_a_column_alone_gives_one_shot_bytes(self, column, count):
        # each class of column as the only column, so that it alone makes
        # the template; a lone row folds only a None column
        rows = [(row[column],) for row in mixed_rows(count, self.CHUNK)]
        columns = MIXED_COLUMNS[column : column + 1]
        config = cli.build_parser().parse_args(["bounds", "--n", "1"])
        assert "".join(cli.render_csv(columns, rows)) == one_shot_csv(columns, rows)
        assert "".join(cli.render_json(config, columns, rows)) == one_shot_json(
            config, columns, rows
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "column",
        [
            [math.inf] * 5,
            [-math.inf],
            [math.nan] * 3,
            [1.0, None, math.inf],
            [np.float64(math.inf)] * 4,
            [np.float64(2.0), math.nan],
        ],
        ids=["inf-constant", "-inf-lone-row", "nan-constant", "float-none-mix", "np-inf",
             "np-float-mix"],
    )
    def test_non_finite_column_writes_nothing(self, fmt, column, monkeypatch, capsys):
        # a column that holds one value is checked as much as any other
        rows = [("weight", 7, cell) for cell in column]
        monkeypatch.setitem(cli._COMMANDS, "bounds", lambda config: (("a", "b", "c"), rows, None))
        code, out, err = run_cli(["bounds", "--n", "1", "--format", fmt], capsys)
        assert (code, out) == (4, "")
        assert err == "numerical instability: an output cell is inf or nan\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_cell_in_the_last_chunk_writes_nothing(
        self, fmt, bad, monkeypatch, tmp_path, capsys
    ):
        count = 3 * self.CHUNK + 7

        def rows():
            for row in synthetic_rows(count - 1):
                yield row
            yield ("last", 0, None, bad)

        monkeypatch.setitem(cli._COMMANDS, "bounds", lambda config: (self.COLUMNS, rows(), None))
        target = tmp_path / "table.txt"
        for extra in ([], ["--out", str(target)]):
            code, out, err = run_cli(["bounds", "--n", "1", "--format", fmt, *extra], capsys)
            assert (code, out) == (4, "")
            assert err == "numerical instability: an output cell is inf or nan\n"
            assert not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_tracks_the_output(self, fmt, tmp_path, capsys):
        # a one-shot render held 6.6 (JSON) and 7.7 (CSV) times the output
        target = tmp_path / f"basis.{fmt}"
        args = ["basis", "--alpha", "0.5", "--nodes", "400", "--n", "20", "--format", fmt,
                "--out", str(target)]
        assert cli.main(args) == 0  # caches and the parser exist before the trace
        tracemalloc.start()
        try:
            code = cli.main(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        size = target.stat().st_size
        assert size > 500_000
        assert peak <= 2 * size
