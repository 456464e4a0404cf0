"""Command-line harness: deterministic experiment sweeps as CSV or JSON.

Commands
    basis        weight, polynomial, norm, and orthogonality tables
    fit          coefficients and sup-error report for one fit
    bounds       threshold/constant report over a degree sweep
    sharpness    extremal-witness error against the sharp constant
    convergence  error decay along a node rule
    compare      discrete vs continuous constants and their ratio

Exit codes: 0 success, 2 configuration or parameter problems, 3 degree
threshold violations, 4 numerical instability, 141 a reader that closed
the output pipe.

Of the package, this module imports only `bounds` and `errors` when it
loads.  numpy and the modules built on it (`hahn`, `lsq`, `registry`)
are imported by the code that fits or builds a grid, so `bounds` and
`compare` run without them.
"""

import argparse
import copy
import functools
import math
import os
import re
import sys
from dataclasses import fields
from itertools import chain, count, islice, repeat

from . import bounds as bnd
from .errors import (
    HahnLsqError,
    InstabilityError,
    MissingDerivativeBoundError,
    ParameterError,
    ThresholdError,
)

SHARPNESS_GAP_TOL = 1e-8
# 128 + SIGPIPE: a shell's status for a writer whose reader closed the pipe
CLOSED_PIPE_EXIT = 141
# the largest grid a command builds; bounds.py calls grids up to it safe
MAX_NODES = 10**6


def _degrees(config):
    if config.n is not None:
        return [config.n]
    if config.n_range is not None:
        lo, hi = config.n_range
        return list(range(lo, hi + 1))
    raise ParameterError("a degree is required: pass --n or --n-range")


def _params(config, N):
    """The Hahn parameters of an N-node grid; beta defaults to alpha."""
    from . import hahn

    if N > MAX_NODES:
        raise ParameterError(f"grid of N={N} nodes exceeds the limit N <= {MAX_NODES}")
    beta = config.alpha if config.beta is None else config.beta
    return hahn.HahnParams(config.alpha, beta, N)


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


@functools.cache
def _parser():
    # building costs several times what parsing does: each add_argument
    # makes a HelpFormatter, which reads the terminal size
    parser = argparse.ArgumentParser(
        prog="hahn-lsq",
        description="Least-squares approximation on equidistant grids via Hahn expansions.",
    )
    # argparse takes only -1 and -.5 forms for a negative number, so a lone
    # "--alpha -5e-08" would read -5e-08 as an option; add the exponent form
    parser._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
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


def build_parser():
    """The CLI's argument parser, as an object the caller owns.

    The parser is built once per process; each call returns a shallow
    copy, so an attribute set on one (a wrapped `parse_args`, say) does
    not reach the next call.
    """
    return copy.copy(_parser())


def _resolve_nodes(config, n):
    if config.nodes is not None:
        return config.nodes
    rule = config.node_rule or "c4"
    c3, c4 = bnd.min_nodes(n, config.alpha)
    return c3 if rule == "c3" else c4


def _fit_bound(f, n, params):
    """The paper's bound D_{n,N} sup|f^{(n+1)}| on a fit's sup error, or
    None where it does not apply: no derivative bound, an asymmetric
    weight, alpha <= -1/2, or n+1 past the degree threshold."""
    alpha, N = params.alpha, params.N
    if f.derivative_sup is None or not params.symmetric or alpha <= -0.5:
        return None
    try:
        return bnd.worst_case_constant(n, N, alpha) * float(f.derivative_sup(n + 1))
    except (ThresholdError, MissingDerivativeBoundError):
        return None
    except OverflowError as exc:
        raise InstabilityError(f"bound at n={n}: sup|f^({n + 1})| of {f.name} overflows") from exc


def _fit_report(f, n, params):
    """The degree-n fit of f and its ErrorReport against _fit_bound."""
    from . import lsq

    approx = lsq.fit_hahn(f, n, params)
    return approx, lsq.sup_error(f, approx, bound=_fit_bound(f, n, params))


# the options each command needs, checked in tuple order; a command
# whose tuple lacks "function" refuses --function
_REQUIRES = {
    "basis": ("nodes", "n"),
    "fit": ("function", "nodes", "n"),
    "convergence": ("function",),
}
_SYMMETRIC_ONLY = ("bounds", "sharpness", "convergence", "compare")


def _check_options(config):
    command = config.command
    required = _REQUIRES.get(command, ())
    if config.function is not None and "function" not in required:
        # any other command would print its table as if it were not given
        raise ParameterError(f"{command} takes no --function, got {config.function!r}")
    if command in _SYMMETRIC_ONLY and config.beta is not None and config.beta != config.alpha:
        raise ParameterError(
            f"{command} requires alpha = beta, got alpha={config.alpha}, beta={config.beta}"
        )
    for name in required:
        if getattr(config, name) is None:
            raise ParameterError(f"{command} requires --{name}")


# ---------------------------------------------------------------- commands
#
# Each command returns (columns, rows, error): rows is an iterable of
# tuples in column order, and error is None or a HahnLsqError that `main`
# reports after the rows are written.


def cmd_basis(config):
    import numpy as np

    from . import hahn

    n = config.n
    params = _params(config, config.nodes)
    if n > params.N:
        raise ParameterError(f"basis degree must satisfy n <= N={params.N}, got {n}")
    # the norms first: where h_0 leaves the double range this raises
    # before the weight and table overflow with numpy warnings
    norms = [hahn.hahn_norm_sq(k, params) for k in range(n + 1)]
    w = hahn.DiscreteWeight.from_params(params)
    table = hahn.hahn_table(n, np.arange(params.N + 1, dtype=float), params)
    # <Q_j, Q_k> for all k > j from one product, each row summed by fsum
    residuals = []
    with np.errstate(over="ignore"):  # an overflowed residual raises below
        for j in range(n + 1):
            products = (table[j] * table[j + 1 :]) * w.values
            for k, terms in enumerate(products, start=j + 1):
                try:
                    residual = math.fsum(terms.tolist()) / math.sqrt(norms[j] * norms[k])
                except (OverflowError, ValueError):  # a partial sum past the double range, or inf - inf
                    residual = math.inf
                if not math.isfinite(residual):
                    raise InstabilityError(f"orthogonality residual of Q_{j} and Q_{k} overflows a double")
                residuals.append(("ortho_residual", j, k, residual))

    def blocks():
        # one block of rows at a time, each a zip of C iterators: the
        # table's rows never all exist as tuples
        yield zip(repeat("weight"), repeat(None), count(), w.values.tolist())
        for k in range(n + 1):
            yield zip(repeat("hahn"), repeat(k), count(), table[k].tolist())
        yield zip(repeat("norm_sq"), count(), repeat(None), norms)
        yield residuals
        if params.symmetric:
            for k in range(n + 1):
                normalized = (-1.0) ** k * table[k] / math.sqrt(norms[k])
                yield zip(repeat("normalized"), repeat(k), count(), normalized.tolist())

    return ("kind", "deg", "idx", "value"), chain.from_iterable(blocks()), None


def cmd_fit(config):
    from . import registry

    n = config.n
    params = _params(config, config.nodes)
    approx, report = _fit_report(registry.resolve(config.function, params), n, params)
    # a zero bound (polynomial reproduced exactly) makes the quotient
    # infinite; serialize that as an empty cell, not "inf"
    ratio = report.ratio
    if ratio is not None and not math.isfinite(ratio):
        ratio = None
    rows = [("coefficient", k, c) for k, c in enumerate(approx.coefficients)]
    rows += [
        ("sup_error", None, report.sup_error),
        ("argmax", None, report.argmax),
        ("bound", None, report.bound),
        ("ratio", None, ratio),
    ]
    return ("kind", "k", "value"), rows, None


def cmd_bounds(config):
    columns = tuple(field.name for field in fields(bnd.BoundReport))
    rows = []
    for n in _degrees(config):
        report = bnd.bound_report(n, _resolve_nodes(config, n), config.alpha)
        # hypothesis_ok prints as 0 or 1 in both formats
        cells = (getattr(report, name) for name in columns)
        rows.append(tuple(int(c) if isinstance(c, bool) else c for c in cells))
    return columns, rows, None


def cmd_sharpness(config):
    from . import registry

    rows = []
    worst_gap = 0.0
    for n in _degrees(config):
        N = _resolve_nodes(config, n)
        params = _params(config, N)
        # a unit (n+1)-st derivative: the bound is D_{n,N}, as fit prints it
        _, report = _fit_report(registry.resolve(f"extremal:{n}", params), n, params)
        gap = abs(report.sup_error - report.bound) / report.bound
        worst_gap = max(worst_gap, gap)
        rows.append((n, N, config.alpha, report.sup_error, report.bound, gap))
    error = None
    if worst_gap > SHARPNESS_GAP_TOL:
        error = InstabilityError(
            f"sharpness gap {worst_gap:.3e} exceeds tolerance {SHARPNESS_GAP_TOL:.1e}"
        )
    return ("n", "N", "alpha", "measured", "bound", "rel_gap"), rows, error


def cmd_convergence(config):
    from . import lsq, registry

    rows = []
    for n in _degrees(config):
        N = _resolve_nodes(config, n)
        params = _params(config, N)
        f = registry.resolve(config.function, params)
        if f.derivative_sup is None:
            raise ParameterError(
                f"convergence requires a function with derivative bounds, {f.name} has none"
            )
        _, report = _fit_report(f, n, params)
        try:
            defect = lsq.class_K_defect(f, n, config.alpha)
        except OverflowError as exc:
            raise InstabilityError(f"class_K_defect of {f.name} at n={n} overflows") from exc
        rows.append((n, N, report.sup_error, report.bound, defect))
    return ("n", "N", "sup_error", "bound", "class_K_defect"), rows, None


def cmd_compare(config):
    if config.nodes is not None or config.node_rule is not None:
        rule = "explicit" if config.nodes is not None else config.node_rule
        cells = [(rule, n, _resolve_nodes(config, n)) for n in _degrees(config)]
    else:
        # two-regime sweep: quadratic node growth keeps the ratio away
        # from 1, cubic pushes it toward 1
        rules = (("nsq10", lambda n: 10 * n * n), ("ncube", lambda n: n**3))
        cells = [(rule, n, N(n)) for n in _degrees(config) for rule, N in rules]
    rows = [(rule, n, N, *bnd.constants_row(n, N, config.alpha)[1:]) for rule, n, N in cells]
    return ("rule", "n", "N", "D", "C", "ratio"), rows, None


_COMMANDS = {
    "basis": cmd_basis,
    "fit": cmd_fit,
    "bounds": cmd_bounds,
    "sharpness": cmd_sharpness,
    "convergence": cmd_convergence,
    "compare": cmd_compare,
}


# ---------------------------------------------------------------- emission

# an inf or nan cell would read as a result; it exits 4 instead
_NONFINITE = "an output cell is inf or nan"

# Rows are rendered this many at a time, so that no structure the size of
# the whole table exists beside its text.
_CHUNK_ROWS = 512


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InstabilityError(_NONFINITE)
        return repr(float(value))
    return str(value)


def _render(rows, heads, close, sep, texts):
    """Each chunk of rows as one string, through one % template.

    A row is, for each column, its head and the text of its cell, then
    close; rows are joined by sep.  The template is built per chunk in
    one pass over its columns, each of one kind: its cells' one exact
    type, or else object.  A float column is checked finite and printed
    by %r, which is float.__repr__, as _format_cell and json print it.
    A None column is folded into the template as the text its format
    gives its first cell, texts(column[:1], kind)[0], and so is an int or
    str column holding one value in a chunk of more than one row.  Any
    other int column is printed by %d, and any other by %s of texts.
    """
    heads = [head.replace("%", "%%") for head in heads]
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        parts, live = [], []
        for head, column in zip(heads, zip(*chunk)):
            kinds = set(map(type, column))
            kind = kinds.pop() if len(kinds) == 1 else object
            if kind is type(None) or (
                kind in (int, str) and len(chunk) > 1 and column.count(column[0]) == len(chunk)
            ):
                directive = texts(column[:1], kind)[0].replace("%", "%%")
            elif kind is float:
                if not all(map(math.isfinite, column)):
                    raise InstabilityError(_NONFINITE)
                directive = "%r"
                live.append(column)
            elif kind is int:
                directive = "%d"
                live.append(column)
            else:
                directive = "%s"
                live.append(texts(column, kind))
            parts += head, directive
        parts.append(close)
        yield sep.join(["".join(parts)] * len(chunk)) % tuple(chain.from_iterable(zip(*live)))


def _csv_texts(column, kind):
    return column if kind is str else list(map(_format_cell, column))


def render_csv(columns, rows):
    """The CSV table as a list of strings, one per chunk of rows."""
    columns = tuple(columns)
    heads = [""] + [","] * (len(columns) - 1)
    return [",".join(columns) + "\n", *_render(rows, heads, "\n", "", _csv_texts)]


def _json_dumps(value):
    import json

    try:
        return json.dumps(value, allow_nan=False)
    except ValueError as exc:  # allow_nan=False refuses inf and nan
        raise InstabilityError(_NONFINITE) from exc


def _json_texts(column, kind):
    from json.encoder import encode_basestring_ascii

    if kind is str:
        return list(map(encode_basestring_ascii, column))
    # one dumps for the whole column; no number's text holds ", "
    cells = _json_dumps(column)[1:-1].split(", ")
    if len(cells) != len(column):  # some cell's own text does
        cells = list(map(_json_dumps, column))
    return cells


def render_json(config, columns, rows):
    """The JSON object as a list of strings: the text up to the rows' "[",
    one string per chunk of rows, and the rest."""
    from json.encoder import encode_basestring_ascii as key

    columns = tuple(columns)
    empty = _json_dumps({"config": vars(config), "columns": columns, "rows": []})
    heads = [(", " if j else "{") + key(name) + ": " for j, name in enumerate(columns)]
    pieces = [empty[:-2]]
    for chunk in _render(rows, heads, "}", ", ", _json_texts):
        if len(pieces) > 1:
            pieces.append(", ")
        pieces.append(chunk)
    pieces.append(empty[-2:] + "\n")
    return pieces


def _write_output(pieces, path):
    if path is None:
        sys.stdout.writelines(pieces)
        # a reader that has closed the pipe fails here, not at exit
        sys.stdout.flush()
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise ParameterError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


def run(config):
    """Execute one experiment, configured by the namespace that
    build_parser().parse_args(argv) returns; returns (pieces, error).
    pieces is the whole rendered table as a list of strings, to be
    written in order; error is None or a HahnLsqError to report once
    they are written."""
    _check_options(config)
    columns, rows, error = _COMMANDS[config.command](config)
    if config.output_format == "json":
        return render_json(config, columns, rows), error
    return render_csv(columns, rows), error


def main(argv=None):
    parser = build_parser()
    try:
        config = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else HahnLsqError.exit_code
    try:
        pieces, error = run(config)
        _write_output(pieces, config.output_path)
        if error is not None:
            raise error
    except HahnLsqError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does.  Point it at devnull,
        # so that the interpreter's flush at exit fails no more (see the
        # signal module's "Note on SIGPIPE"), and exit as a shell reports
        # a writer that SIGPIPE ended
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_PIPE_EXIT
    return 0
