"""Per-layer tracing of `hahn_lsq` from outside the package.

`Tracer.install` replaces public functions of the package's modules
with wrappers that record a span (name, start, end, parent, op id) and
count work at the same boundary; `uninstall` puts the originals back.
Functions are looked up as module attributes at call time, so a wrapper
set on the module is also what the package's own calls reach.  The
per-node `specfun` calls are not wrapped: a wrapper per node would cost
more than the work it measures.
"""

import dataclasses
from collections import Counter
from time import perf_counter

import numpy as np

# (span name, metric suffix, kind) for the per-layer metrics: "ms" is the
# inclusive time of the spans, "self_ms" minus the spans nested inside.
SPAN_METRICS = (
    ("hahn.weight", "ms"), ("hahn.table", "ms"), ("hahn.norm", "ms"),
    ("lsq.fit", "self_ms"), ("lsq.scan", "ms"), ("lsq.polish", "ms"), ("lsq.sup", "self_ms"),
    ("registry.resolve", "ms"), ("registry.eval", "ms"),
    ("bounds.constant", "ms"), ("bounds.report", "self_ms"), ("bounds.min_nodes", "ms"),
    ("jacobi.constant", "ms"),
    ("cli.parse", "ms"), ("cli.command", "self_ms"), ("cli.render", "ms"),
)
CALL_METRICS = (
    "hahn.weight", "hahn.table", "hahn.norm", "lsq.fit", "lsq.sup", "registry.eval",
    "bounds.constant", "bounds.min_nodes", "jacobi.constant",
)
COUNT_METRICS = (
    "hahn.weight.nodes", "hahn.table.points", "hahn.table.scalar_calls",
    "lsq.scan.points", "lsq.polish.steps",
)


class Tracer:
    def __init__(self, cli, hahn, lsq, bounds, jacobi, registry):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._saved = []
        self._polished = None
        timed = self._timed
        self._patches = [
            (hahn.DiscreteWeight, "from_params", lambda f: staticmethod(timed("hahn.weight", f, self._count_weight))),
            (hahn, "hahn_table", lambda f: timed("hahn.table", f, self._count_table)),
            (hahn, "hahn_norm_sq", lambda f: timed("hahn.norm", f)),
            (lsq, "fit_hahn", lambda f: timed("lsq.fit", f)),
            (lsq, "evaluate", self._wrap_evaluate),
            (lsq, "_golden_max", self._wrap_polish),
            (lsq, "sup_error", self._wrap_sup),
            (lsq, "extremal_function", lambda f: lambda *a, **k: self._wrap_spec(f(*a, **k))),
            (registry, "resolve", lambda f: timed("registry.resolve", f, after=self._wrap_spec)),
            (bounds, "worst_case_constant", lambda f: timed("bounds.constant", f)),
            (bounds, "bound_report", lambda f: timed("bounds.report", f)),
            (bounds, "min_nodes", lambda f: timed("bounds.min_nodes", f)),
            (jacobi, "continuous_constant", lambda f: timed("jacobi.constant", f)),
            (bounds, "continuous_constant", lambda f: timed("jacobi.constant", f)),
            (cli, "build_parser", lambda f: timed("cli.parse", f, after=self._wrap_parser)),
            (cli, "render_csv", lambda f: timed("cli.render", f)),
            (cli, "render_json", lambda f: timed("cli.render", f)),
        ]
        self._patches += [
            (cli._COMMANDS, name, lambda f: timed("cli.command", f)) for name in cli._COMMANDS
        ]

    # ------------------------------------------------------- spans

    def _span(self, name, fn, args, kwargs):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _timed(self, name, fn, count=None, after=None):
        def wrapper(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            result = self._span(name, fn, args, kwargs)
            return result if after is None else after(result)

        return wrapper

    def run_op(self, op_id, fn, *args):
        self.op = op_id
        return self._span("op", fn, args, {})

    # ------------------------------------------------------- counters

    def _count_weight(self, params):
        self.counts["hahn.weight.nodes"] += params.N + 1

    def _count_table(self, n_max, xs, params):
        size = np.size(xs)
        self.counts["hahn.table.points"] += size
        self.counts["hahn.table.scalar_calls"] += size == 1

    def _wrap_evaluate(self, fn):
        def wrapper(a, t):
            size = np.size(t)
            if size == 1:  # a polish step; its table call is traced below it
                return fn(a, t)
            self.counts["lsq.scan.points"] += size
            return self._span("lsq.scan", fn, (a, t), {})

        return wrapper

    def _wrap_polish(self, fn):
        def wrapper(g, lo, hi, *args, **kwargs):
            def step(t):
                self.counts["lsq.polish.steps"] += 1
                return g(t)

            self._polished = self._span("lsq.polish", fn, (step, lo, hi) + args, kwargs)
            return self._polished

        return wrapper

    def _wrap_sup(self, fn):
        def wrapper(*args, **kwargs):
            self._polished = None
            report = self._span("lsq.sup", fn, args, kwargs)
            # the polish was useful when its point replaced the grid maximum
            if self._polished is not None and (report.argmax, report.sup_error) == self._polished:
                self.counts["lsq.polish.useful"] += 1
            return report

        return wrapper

    def _wrap_spec(self, spec):
        return dataclasses.replace(spec, evaluator=self._timed("registry.eval", spec.evaluator))

    def _wrap_parser(self, parser):
        parser.parse_args = self._timed("cli.parse", parser.parse_args)
        return parser

    # ------------------------------------------------------- install

    def install(self):
        for owner, key, make in self._patches:
            if isinstance(owner, dict):
                original, current = owner[key], owner[key]
            elif isinstance(owner, type):
                original, current = owner.__dict__[key], getattr(owner, key)
            else:
                original = current = getattr(owner, key)
            self._saved.append((owner, key, original))
            wrapped = make(current)
            if isinstance(owner, dict):
                owner[key] = wrapped
            else:
                setattr(owner, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._saved.clear()

    # ------------------------------------------------------- results

    def totals(self):
        """Inclusive seconds, self seconds and span counts per span name,
        plus the work counters."""
        nested = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                nested[parent] += end - start
        inclusive, own, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - nested[i]
            calls[name] += 1
        return dict(inclusive=inclusive, own=own, calls=calls, counts=self.counts)

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_us,end_us,parent,op\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f},{parent},{op}\n")
