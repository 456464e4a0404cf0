"""The benchmark's per-layer tracer still fits the package.

`bench/tracer.py` wraps package functions by attribute name from
outside.  A renamed or removed function would only break
`bench/run.py --trace 1`; these tests make it fail the suite instead.
"""

import importlib.util
import pathlib
from collections import Counter

import numpy as np
import pytest

from hahn_lsq import bounds, cli, hahn, jacobi, lsq, registry

TRACER = pathlib.Path(__file__).parents[1] / "bench" / "tracer.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer(cli, hahn, lsq, bounds, jacobi, registry)


def current(tracer):
    """The object behind every attribute the tracer patches."""
    out = []
    for owner, key, _ in tracer._patches:
        if isinstance(owner, dict):
            out.append(owner[key])
        elif isinstance(owner, type):
            out.append(owner.__dict__[key])
        else:
            out.append(getattr(owner, key))
    return out


def test_install_patches_and_uninstall_restores_every_attribute(tracer):
    before = current(tracer)
    tracer.install()
    try:
        during = current(tracer)
    finally:
        tracer.uninstall()
    assert all(new is not old for new, old in zip(during, before))
    assert all(new is old for new, old in zip(current(tracer), before))


def test_traced_op_records_every_layer_it_passes(tracer, capsys):
    tracer.install()
    try:
        # sin10 at n = 4 peaks inside (-1, 1), so the polish takes its
        # steps; exp peaks at t = 1, where there is nothing to polish
        fit = ["fit", "--function", "sin10", "--nodes", "40", "--n", "4"]
        codes = [tracer.run_op(0, cli.main, fit)]
        # a fit takes its norms from the recurrence ratios; basis prints
        # hahn_norm_sq, so the norm wrapper is covered there
        codes.append(tracer.run_op(1, cli.main, ["basis", "--nodes", "6", "--n", "2"]))
        # a fit carries its values at the Chebyshev points, so no command
        # reaches evaluate, which the lsq.scan span wraps; call it directly
        a = lsq.Approximant(hahn.HahnParams(0.0, 0.0, 6), 2, (1.0, 0.5, 0.25))
        tracer.run_op(2, lambda: lsq.evaluate(a, np.linspace(-1, 1, 5)))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0]
    totals = tracer.totals()
    for name in ("hahn.weight", "hahn.table", "hahn.norm", "lsq.fit", "lsq.scan",
                 "lsq.polish", "lsq.sup", "registry.resolve", "bounds.constant",
                 "jacobi.constant", "cli.parse", "cli.command", "cli.render"):
        assert totals["calls"][name] >= 1, name
    assert totals["counts"]["lsq.polish.steps"] > 0
    assert {op for name, *_, op in tracer.spans if name == "hahn.norm"} == {1}


def test_every_traced_op_builds_and_parses_once(tracer, capsys):
    # the tracer wraps parse_args on the parser build_parser returns; one
    # parser shared between calls would gather a wrapper per traced op
    ops = [["bounds", "--alpha", "0", "--n", "2"], ["compare", "--alpha", "0", "--n", "3"]]
    op_id = 0
    for _ in range(2):
        tracer.install()
        try:
            for args in ops:
                assert tracer.run_op(op_id, cli.main, args) == 0
                op_id += 1
        finally:
            tracer.uninstall()
    capsys.readouterr()
    parses = Counter(op for name, *_, op in tracer.spans if name == "cli.parse")
    assert parses == {op: 2 for op in range(op_id)}
    assert "parse_args" not in vars(cli.build_parser())
