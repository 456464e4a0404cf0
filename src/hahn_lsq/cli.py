"""Command-line harness: deterministic experiment sweeps as CSV or JSON.

Commands
    basis        weight, polynomial, norm, and orthogonality tables
    fit          coefficients and sup-error report for one fit
    bounds       threshold/constant report over a degree sweep
    sharpness    extremal-witness error against the sharp constant
    convergence  error decay along a node rule
    compare      discrete vs continuous constants and their ratio

Exit codes: 0 success, 2 configuration or parameter problems, 3 degree
threshold violations, 4 numerical instability.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import bounds as bnd
from . import hahn, lsq, registry
from .errors import (
    DegreeError,
    HahnLsqError,
    InstabilityError,
    MissingDerivativeBoundError,
    ParameterError,
    ThresholdError,
)

EXIT_OK = 0
EXIT_CONFIG = HahnLsqError.exit_code
EXIT_THRESHOLD = ThresholdError.exit_code
EXIT_UNSTABLE = InstabilityError.exit_code

SHARPNESS_GAP_TOL = 1e-8


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    alpha: float = 0.0
    beta: Optional[float] = None
    n: Optional[int] = None
    n_range: Optional[tuple] = None
    nodes: Optional[int] = None
    node_rule: Optional[str] = None
    function: Optional[str] = None
    output_format: str = "csv"
    output_path: Optional[str] = None

    def resolved_beta(self):
        return self.alpha if self.beta is None else self.beta

    def degrees(self):
        if self.n is not None:
            return [self.n]
        if self.n_range is not None:
            lo, hi = self.n_range
            return list(range(lo, hi + 1))
        raise ParameterError("a degree is required: pass --n or --n-range")

    def params_for(self, N):
        return hahn.HahnParams(self.alpha, self.resolved_beta(), N)


def _parse_n_range(text):
    parts = text.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers in A..B, got {text!r}") from exc
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"need 0 <= A <= B, got {text!r}")
    return lo, hi


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hahn-lsq",
        description="Least-squares approximation on equidistant grids via Hahn expansions.",
    )
    parser.add_argument("command", choices=tuple(_COMMANDS))
    parser.add_argument("--alpha", type=_finite_float, default=0.0)
    parser.add_argument("--beta", type=_finite_float, default=None)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--n", type=int, default=None)
    group.add_argument("--n-range", type=_parse_n_range, default=None, metavar="A..B")
    nodes_group = parser.add_mutually_exclusive_group()
    nodes_group.add_argument("--nodes", "--N", dest="nodes", type=int, default=None)
    nodes_group.add_argument("--node-rule", choices=("c3", "c4"), default=None)
    parser.add_argument("--function", default=None)
    parser.add_argument("--format", dest="output_format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", dest="output_path", default=None)
    return parser


def _resolve_nodes(config, n, default_rule="c4"):
    if config.nodes is not None:
        return config.nodes
    rule = config.node_rule or default_rule
    c3, c4 = bnd.min_nodes(n, config.alpha)
    return c3 if rule == "c3" else c4


def _require_symmetric(config):
    if config.beta is not None and config.beta != config.alpha:
        raise ParameterError(
            f"{config.command} requires alpha = beta, got alpha={config.alpha}, beta={config.beta}"
        )


# ---------------------------------------------------------------- commands


def cmd_basis(config):
    if config.nodes is None:
        raise ParameterError("basis requires an explicit --nodes")
    n = config.n
    if n is None:
        raise ParameterError("basis requires --n (maximum degree)")
    params = config.params_for(config.nodes)
    if n > params.N:
        raise DegreeError(f"basis degree must satisfy n <= N={params.N}, got {n}")
    N = params.N
    w = hahn.DiscreteWeight.from_params(params)
    grid = np.arange(N + 1, dtype=float)
    table = hahn.hahn_table(n, grid, params)
    norms = [hahn.hahn_norm_sq(k, params) for k in range(n + 1)]
    rows = []
    for i in range(N + 1):
        rows.append({"kind": "weight", "deg": None, "idx": i, "value": float(w.values[i])})
    for k in range(n + 1):
        for i in range(N + 1):
            rows.append({"kind": "hahn", "deg": k, "idx": i, "value": float(table[k, i])})
    for k in range(n + 1):
        rows.append({"kind": "norm_sq", "deg": k, "idx": None, "value": norms[k]})
    for j in range(n + 1):
        for k in range(j + 1, n + 1):
            residual = hahn.inner_product(table[j], table[k], w) / math.sqrt(norms[j] * norms[k])
            rows.append({"kind": "ortho_residual", "deg": j, "idx": k, "value": residual})
    if params.symmetric:
        scale = [math.sqrt(v) for v in norms]
        for k in range(n + 1):
            for i in range(N + 1):
                value = (-1.0) ** k * table[k, i] / scale[k]
                rows.append({"kind": "normalized", "deg": k, "idx": i, "value": value})
    return ["kind", "deg", "idx", "value"], rows, EXIT_OK


def cmd_fit(config):
    if config.function is None:
        raise ParameterError("fit requires --function")
    if config.nodes is None:
        raise ParameterError("fit requires an explicit --nodes")
    n = config.n
    if n is None:
        raise ParameterError("fit requires --n")
    params = config.params_for(config.nodes)
    f = registry.resolve(config.function, params)
    approx = lsq.fit_hahn(f, n, params)
    bound = None
    if f.derivative_sup is not None and params.symmetric and config.alpha > -0.5:
        if bnd.hypothesis_holds(n, params.N, config.alpha):
            try:
                bound = bnd.worst_case_constant(n, params.N, config.alpha) * float(
                    f.derivative_sup(n + 1)
                )
            except MissingDerivativeBoundError:
                bound = None
    report = lsq.sup_error(f, approx, bound=bound)
    # a zero bound (polynomial reproduced exactly) makes the quotient
    # infinite; serialize that as an empty cell, not "inf"
    ratio = report.ratio
    if ratio is not None and not math.isfinite(ratio):
        ratio = None
    rows = [
        {"kind": "coefficient", "k": k, "value": approx.coefficients[k]} for k in range(n + 1)
    ]
    rows.append({"kind": "sup_error", "k": None, "value": report.sup_error})
    rows.append({"kind": "argmax", "k": None, "value": report.argmax})
    rows.append({"kind": "bound", "k": None, "value": report.bound})
    rows.append({"kind": "ratio", "k": None, "value": ratio})
    return ["kind", "k", "value"], rows, EXIT_OK


def cmd_bounds(config):
    columns = [field.name for field in fields(bnd.BoundReport)]
    rows = []
    for n in config.degrees():
        report = bnd.bound_report(n, _resolve_nodes(config, n), config.alpha)
        row = {name: getattr(report, name) for name in columns}
        row["hypothesis_ok"] = int(report.hypothesis_ok)
        rows.append(row)
    return columns, rows, EXIT_OK


def cmd_sharpness(config):
    _require_symmetric(config)
    rows = []
    worst_gap = 0.0
    for n in config.degrees():
        N = _resolve_nodes(config, n)
        params = config.params_for(N)
        witness = lsq.extremal_function(n, params)
        approx = lsq.fit_hahn(witness, n, params)
        constant = bnd.worst_case_constant(n, N, config.alpha)
        measured = lsq.sup_error(witness, approx).sup_error
        gap = abs(measured - constant) / constant
        worst_gap = max(worst_gap, gap)
        rows.append(
            {
                "n": n,
                "N": N,
                "alpha": config.alpha,
                "measured": measured,
                "bound": constant,
                "rel_gap": gap,
            }
        )
    code = EXIT_OK
    if worst_gap > SHARPNESS_GAP_TOL:
        print(
            f"sharpness gap {worst_gap:.3e} exceeds tolerance {SHARPNESS_GAP_TOL:.1e}",
            file=sys.stderr,
        )
        code = EXIT_UNSTABLE
    return ["n", "N", "alpha", "measured", "bound", "rel_gap"], rows, code


def cmd_convergence(config):
    _require_symmetric(config)
    if config.function is None:
        raise ParameterError("convergence requires --function")
    rows = []
    for n in config.degrees():
        N = _resolve_nodes(config, n)
        params = config.params_for(N)
        f = registry.resolve(config.function, params)
        if f.derivative_sup is None:
            raise ParameterError(
                f"convergence requires a function with derivative bounds, {f.name} has none"
            )
        approx = lsq.fit_hahn(f, n, params)
        try:
            bound = bnd.worst_case_constant(n, N, config.alpha) * float(f.derivative_sup(n + 1))
        except ThresholdError:
            bound = None
        report = lsq.sup_error(f, approx, bound=bound)
        defect = lsq.class_K_defect(f, n, config.alpha)
        rows.append(
            {
                "n": n,
                "N": N,
                "sup_error": report.sup_error,
                "bound": bound,
                "class_K_defect": defect,
            }
        )
    return ["n", "N", "sup_error", "bound", "class_K_defect"], rows, EXIT_OK


def _compare_row(rule, n, N, alpha):
    row = {"rule": rule, "n": n, "N": N, "D": None, "C": None, "ratio": None}
    row["C"] = bnd.continuous_constant(n, alpha)
    if n + 1 <= N:
        row["ratio"] = bnd.ratio_discrete_continuous(n, N)
        if bnd.hypothesis_holds(n, N, alpha):
            row["D"] = bnd.worst_case_constant(n, N, alpha)
    return row


def cmd_compare(config):
    _require_symmetric(config)
    rows = []
    if config.nodes is not None or config.node_rule is not None:
        rule = "explicit" if config.nodes is not None else config.node_rule
        for n in config.degrees():
            rows.append(_compare_row(rule, n, _resolve_nodes(config, n), config.alpha))
    else:
        # two-regime sweep: quadratic node growth keeps the ratio away
        # from 1, cubic pushes it toward 1
        for n in config.degrees():
            rows.append(_compare_row("nsq10", n, 10 * n * n, config.alpha))
            rows.append(_compare_row("ncube", n, n**3, config.alpha))
    return ["rule", "n", "N", "D", "C", "ratio"], rows, EXIT_OK


_COMMANDS = {
    "basis": cmd_basis,
    "fit": cmd_fit,
    "bounds": cmd_bounds,
    "sharpness": cmd_sharpness,
    "convergence": cmd_convergence,
    "compare": cmd_compare,
}


# ---------------------------------------------------------------- emission


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def render_csv(columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def render_json(config, columns, rows):
    payload = {"config": asdict(config), "columns": columns, "rows": rows}
    return json.dumps(payload, allow_nan=False) + "\n"


def _write_output(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def run(config):
    """Execute one experiment; returns (rendered_text, exit_code)."""
    columns, rows, code = _COMMANDS[config.command](config)
    if config.output_format == "json":
        text = render_json(config, columns, rows)
    else:
        text = render_csv(columns, rows)
    return text, code


def main(argv=None):
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    config = ExperimentConfig(**vars(namespace))
    try:
        text, code = run(config)
    except HahnLsqError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    _write_output(text, config.output_path)
    return code
