"""Expected results for each op (`expect`, run in the launcher) and the
comparison of an op's output with them (`check`, run in the launcher
on the outputs the worker returns after each round).

A check returns the list of problems found and the largest deviation
seen, relative to the output's scale: max|f| on the grid for fitted
values and sup errors, the value itself for constants.
"""

import json
import math

import numpy as np
from numpy.polynomial import chebyshev as cheb

import oracle
from oracle import SHARPNESS_TOL, TOL


def _fit_reference(alpha, beta, N, n, function, cache):
    key = (alpha, beta, N, n)
    if key not in cache:
        cache[key] = oracle.Basis(alpha, beta, N, n)
    basis = cache[key]
    target = oracle.Target(function)
    fs = target.f(basis.t)
    a, g = basis.fit(fs)
    sup, _ = oracle.sup_abs(lambda t: target.f(t) - cheb.chebval(t, g))
    return basis, target, a, g, float(np.max(np.abs(fs))), sup


def _bound(n, N, alpha, beta, target):
    if target.dsup is None or alpha != beta or not oracle.hypothesis(n, N, alpha):
        return None
    return float(oracle.worst_case_constant(n, N, alpha)) * float(target.dsup(n + 1))


def expect(op, cache):
    """Reference data for one op, computed without `hahn_lsq`."""
    if op.command == "convergence":
        _, target, _, _, scale, sup = _fit_reference(op.alpha, op.alpha, op.N, op.n, op.function, cache)
        return dict(n=op.n, N=op.N, scale=scale, sup=sup,
                    bound=_bound(op.n, op.N, op.alpha, op.alpha, target),
                    defect=oracle.class_k_defect(float(target.dsup(op.n)), op.n, op.alpha))
    if op.command == "sharpness":
        return dict(n=op.n, N=op.N, alpha=op.alpha,
                    D=float(oracle.worst_case_constant(op.n, op.N, op.alpha)))
    if op.command == "fit":
        basis, target, a, g, scale, sup = _fit_reference(op.alpha, op.beta, op.N, op.n, op.function, cache)
        return dict(n=op.n, N=op.N, function=op.function, scale=scale, sup=sup,
                    bound=_bound(op.n, op.N, op.alpha, op.beta, target),
                    M=basis.M, pm1=basis.pm1, a=a, g=g)
    if op.command == "bounds":
        rows = []
        for n in op.degrees:
            N = oracle.min_nodes_c4(n)
            ok = oracle.hypothesis(n, N, op.alpha)
            rows.append(dict(
                n=n, N=N, alpha=op.alpha, threshold=oracle.threshold(op.alpha, N),
                hypothesis_ok=1 if ok else 0,
                D=float(oracle.worst_case_constant(n, N, op.alpha)) if ok else None,
                C=float(oracle.continuous_constant(n, op.alpha)),
                ratio=float(oracle.grid_factor(n, N)),
                simplified=oracle.simplified_constant(n, op.alpha) if n >= 1 else None,
                node_min_c3=oracle.min_nodes_c3(n, op.alpha), node_min_c4=N))
        return rows
    if op.command == "compare":
        rows = []
        for n in op.degrees:
            C = float(oracle.continuous_constant(n, op.alpha))
            for rule, N in (("nsq10", 10 * n * n), ("ncube", n**3)):
                fits = n + 1 <= N
                D = None
                if fits and oracle.hypothesis(n, N, op.alpha):
                    D = float(oracle.worst_case_constant(n, N, op.alpha))
                rows.append(dict(rule=rule, n=n, N=N, D=D, C=C,
                                 ratio=float(oracle.grid_factor(n, N)) if fits else None))
        return rows
    if op.command == "basis":
        basis = oracle.Basis(op.alpha, op.alpha, op.N, op.n)
        Q = basis.hahn_values()
        norms = basis.hahn_norms()
        signs = (-1.0) ** np.arange(op.n + 1)
        return dict(weight=np.exp(oracle.log_weights(op.alpha, op.alpha, op.N)), hahn=Q,
                    norm_sq=norms, normalized=(signs / np.sqrt(norms))[:, None] * Q)
    raise ValueError(op.command)


# ------------------------------------------------------------ checking


def _cell(text):
    return None if text == "" else float(text)


def _parse_csv(text):
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    lines = text[:-1].split("\n")
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row {line!r} does not match columns {columns}")
        rows.append(dict(zip(columns, cells)))
    return columns, rows


class _Report:
    def __init__(self):
        self.problems = []
        self.dev = 0.0

    def deviation(self, what, dev, tol=TOL):
        """Record a deviation already divided by its scale."""
        if not dev <= tol:  # also catches nan
            self.problems.append(f"{what}: deviation {dev:.3e} > {tol:.0e}")
        if math.isfinite(dev):
            self.dev = max(self.dev, dev)
        else:
            self.dev = math.inf

    def relative(self, what, got, want, tol=TOL):
        if want is None or got is None:
            if want is not got:
                self.problems.append(f"{what}: got {got}, expected {want}")
            return
        if want == 0.0:
            self.deviation(what, 0.0 if got == 0.0 else math.inf, tol)
        else:
            self.deviation(what, abs(got - want) / abs(want), tol)

    def equal(self, what, got, want):
        if got != want:
            self.problems.append(f"{what}: got {got}, expected {want}")


def _check_sup(report, sup, argmax, exp, target=None, g=None):
    scale = exp["scale"]
    report.deviation("sup_error", abs(sup - exp["sup"]) / scale)
    if target is not None:
        # the reported argmax attains the reported sup
        at = abs(float(target.f(np.float64(argmax))) - float(cheb.chebval(argmax, g)))
        report.deviation("error at argmax", max(sup - at, 0.0) / scale)
    if exp["bound"] is not None and not sup <= exp["bound"] + TOL * scale:
        report.problems.append(f"sup_error {sup!r} above the bound {exp['bound']!r}")


def _check_convergence(report, rows, exp):
    if len(rows) != 1:
        raise ValueError(f"expected one row, got {len(rows)}")
    row = rows[0]
    report.equal("n", int(row["n"]), exp["n"])
    report.equal("N", int(row["N"]), exp["N"])
    _check_sup(report, float(row["sup_error"]), None, exp)
    report.relative("bound", _cell(row["bound"]), exp["bound"])
    report.relative("class_K_defect", _cell(row["class_K_defect"]), exp["defect"])


def _check_sharpness(report, rows, exp):
    if len(rows) != 1:
        raise ValueError(f"expected one row, got {len(rows)}")
    row = rows[0]
    report.equal("n", int(row["n"]), exp["n"])
    report.equal("N", int(row["N"]), exp["N"])
    report.equal("alpha", float(row["alpha"]), exp["alpha"])
    report.relative("bound", float(row["bound"]), exp["D"])
    report.relative("measured", float(row["measured"]), exp["D"], SHARPNESS_TOL)
    gap = float(row["rel_gap"])
    report.deviation("rel_gap", gap, SHARPNESS_TOL)
    measured, bound = float(row["measured"]), float(row["bound"])
    report.deviation("rel_gap vs its columns", abs(gap - abs(measured - bound) / bound))


def _check_fit(report, rows, exp):
    coeffs = np.array([float(r["value"]) for r in rows if r["kind"] == "coefficient"])
    if coeffs.size != exp["n"] + 1:
        raise ValueError(f"expected {exp['n'] + 1} coefficients, got {coeffs.size}")
    extra = {r["kind"]: _cell(r["value"]) for r in rows if r["kind"] != "coefficient"}
    # Hahn coefficients c_k on Q_k = P_k / P_k(-1) against the QR fit sum a_k P_k
    diff = exp["M"] @ (coeffs / exp["pm1"] - exp["a"])
    report.deviation("fitted values", float(np.max(np.abs(cheb.chebval(oracle.grid(exp["N"]), diff)))) / exp["scale"])
    _check_sup(report, extra["sup_error"], extra["argmax"], exp, oracle.Target(exp["function"]), exp["g"])
    report.relative("bound", extra["bound"], exp["bound"])
    ratio = None
    if exp["bound"] is not None and extra["bound"] > 0:
        ratio = extra["sup_error"] / extra["bound"]
    report.relative("ratio", extra["ratio"], ratio)


_BOUNDS_INT = ("n", "N", "hypothesis_ok", "node_min_c3", "node_min_c4")
_BOUNDS_FLOAT = ("alpha", "threshold", "D", "C", "ratio", "simplified")


def _check_table(report, rows, exp, ints, floats):
    if len(rows) != len(exp):
        raise ValueError(f"expected {len(exp)} rows, got {len(rows)}")
    for row, want in zip(rows, exp):
        where = ",".join(f"{k}={row[k]}" for k in ("rule", "n", "N") if k in row)
        for k in ints:
            report.equal(f"{k} at {where}", int(row[k]), want[k])
        for k in floats:
            report.relative(f"{k} at {where}", _cell(row[k]), want[k])
        if "rule" in want:
            report.equal(f"rule at {where}", row["rule"], want["rule"])


def _check_basis(report, rows, exp):
    by_kind = {}
    for r in rows:
        by_kind.setdefault(r["kind"], []).append(r)
    weight = np.array([float(r["value"]) for r in by_kind["weight"]])
    if weight.shape != exp["weight"].shape:
        raise ValueError("weight table has the wrong length")
    report.deviation("weight", float(np.max(np.abs(weight / exp["weight"] - 1.0))))
    n1, N1 = exp["hahn"].shape
    for kind in ("hahn", "normalized"):
        got = np.array([float(r["value"]) for r in by_kind[kind]]).reshape(n1, N1)
        want = exp[kind]
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        report.deviation(kind, float(np.max(np.abs(got - want) / scale)))
    q0 = np.array([float(r["value"]) for r in by_kind["hahn"] if int(r["idx"]) == 0])
    report.deviation("Q_k(0) = 1", float(np.max(np.abs(q0 - 1.0))))
    norms = np.array([float(r["value"]) for r in by_kind["norm_sq"]])
    report.deviation("norm_sq", float(np.max(np.abs(norms / exp["norm_sq"] - 1.0))))
    resid = [abs(float(r["value"])) for r in by_kind["ortho_residual"]]
    if len(resid) != n1 * (n1 - 1) // 2:
        raise ValueError("wrong number of orthogonality residuals")
    report.deviation("orthogonality residual", max(resid))


def check(op, code, text, exp):
    """(problems, largest relative deviation) for one op's exit code and output."""
    report = _Report()
    if code != 0:
        report.problems.append(f"exit code {code}")
        return report.problems, report.dev
    try:
        if op.fmt == "json":
            payload = json.loads(text)
            rows = [{k: ("" if v is None else str(v)) for k, v in r.items()} for r in payload["rows"]]
        else:
            _, rows = _parse_csv(text)
        {
            "convergence": _check_convergence,
            "sharpness": _check_sharpness,
            "fit": _check_fit,
            "bounds": lambda rep, r, e: _check_table(rep, r, e, _BOUNDS_INT, _BOUNDS_FLOAT),
            "compare": lambda rep, r, e: _check_table(rep, r, e, ("n", "N"), ("D", "C", "ratio")),
            "basis": _check_basis,
        }[op.command](report, rows, exp)
    except (KeyError, ValueError, TypeError) as exc:
        report.problems.append(f"unreadable output: {exc!r}")
    return report.problems, report.dev
