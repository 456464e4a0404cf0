"""The package's public surface: what `hahn_lsq` exports, what it no
longer exports, the exit code of each exported error, and what its
modules import."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import hahn_lsq
from hahn_lsq import bounds, cli, jacobi

PACKAGE = pathlib.Path(hahn_lsq.__file__).parent

# names the package no longer exports: most only tests called, and the
# four that criteria 01, 05, 06 and 09 check are in tests/oracles.py;
# LengthMismatchError nothing raised, log_gamma is math.lgamma, and
# DegreeError and DomainError are ParameterError, with its exit code
REMOVED = (
    "DegreeError",
    "DomainError",
    "JacobiParams",
    "LengthMismatchError",
    "alpha0_constant",
    "alpha0_exact_constant",
    "alpha0_sandwich_logs",
    "endpoint_max_check",
    "gamma_ratio_residual",
    "gen_binomial",
    "hahn_eval",
    "hypothesis_holds",
    "inner_product",
    "jacobi_eval",
    "jacobi_norm_sq",
    "jacobi_sup",
    "log_gamma",
    "normalized_hahn_eval",
    "pochhammer",
    "stirling_sandwich",
    "stirling_sandwich_logs",
    "weight",
)


def test_every_exported_name_resolves():
    # each name is the object its home module defines
    for name in hahn_lsq.__all__:
        value = getattr(hahn_lsq, name)
        assert value.__module__.startswith("hahn_lsq."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(hahn_lsq.__all__) <= set(dir(hahn_lsq))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hahn_lsq.no_such_name


# the exit code and stderr prefix `hahn_lsq.cli.main` reports for each error
EXIT_CODES = {
    "HahnLsqError": (2, "configuration error", ()),
    "ParameterError": (2, "configuration error", (ValueError,)),
    "MissingDerivativeBoundError": (2, "configuration error", (LookupError,)),
    "ThresholdError": (3, "threshold violation", (ValueError,)),
    "InstabilityError": (4, "numerical instability", (RuntimeError,)),
}


def test_every_exported_error_has_an_exit_code():
    exported = {
        name for name in hahn_lsq.__all__
        if isinstance(getattr(hahn_lsq, name), type)
        and issubclass(getattr(hahn_lsq, name), hahn_lsq.HahnLsqError)
    }
    assert exported == set(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_error_carries_its_exit_code_and_prefix(name, capsys, monkeypatch):
    status, prefix, builtins = EXIT_CODES[name]
    error = getattr(hahn_lsq, name)
    assert issubclass(error, hahn_lsq.HahnLsqError)
    assert all(issubclass(error, base) for base in builtins)
    assert (error.exit_code, error.prefix) == (status, prefix)

    def fail(config):
        raise error("boom")

    monkeypatch.setitem(cli._COMMANDS, "bounds", fail)
    assert cli.main(["bounds", "--alpha", "0", "--n", "1"]) == status
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}: boom\n"


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    assert name not in hahn_lsq.__all__
    with pytest.raises(ImportError):
        exec(f"from hahn_lsq import {name}", {})


def test_jacobi_module_holds_only_the_continuous_constant():
    # the benchmark imports hahn_lsq.jacobi by name; bounds defines C_n
    tree = ast.parse((PACKAGE / "jacobi.py").read_text(encoding="utf-8"))
    docstring, *statements = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [ast.dump(node) for node in statements] == [
        ast.dump(ast.parse("from .bounds import continuous_constant").body[0])
    ]
    assert bounds.continuous_constant is jacobi.continuous_constant is hahn_lsq.continuous_constant
    assert jacobi.continuous_constant.__module__ == "hahn_lsq.bounds"


def _outside_functions(node):
    """The nodes under node that run when its module is imported: all but
    the bodies of functions and methods."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _outside_functions(child)


@pytest.mark.parametrize("module", ["bounds.py", "errors.py", "cli.py", "__init__.py"])
def test_scalar_modules_do_not_import_numpy(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    # the package and the CLI may import numpy in a function, never on import
    walk = _outside_functions if module in ("cli.py", "__init__.py") else ast.walk
    imported = set()
    for node in walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported


def _run_fresh(args, **kwargs):
    """A fresh interpreter that imports the package under test."""
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, **kwargs)


def test_cli_import_does_not_load_fractions():
    # exact rationals are for the test oracles and numpy is for the fits:
    # the package loads its modules on first use, and the CLI loads only
    # what every command needs
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hahn_lsq\n"
        "print(sorted(m for m in sys.modules if m.startswith('hahn_lsq.')))\n"
        "import hahn_lsq.cli\n"
        "print(sorted((set(sys.modules) - before) & {'fractions', 'decimal', 'numpy', 'json',\n"
        "    'hahn_lsq.hahn', 'hahn_lsq.jacobi', 'hahn_lsq.lsq', 'hahn_lsq.registry'}))\n"
    )
    child = _run_fresh(["-c", code], text=True, check=True)
    assert child.stdout.splitlines() == ["[]", "[]"]


# runs hahn_lsq.cli.main on its arguments with numpy unimportable
WITHOUT_NUMPY = (
    "import sys\n"
    "sys.modules['numpy'] = None\n"
    "import hahn_lsq.cli\n"
    "sys.exit(hahn_lsq.cli.main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--alpha", "0", "--n-range", "1..20"),
        ("bounds", "--alpha", "0.5", "--n-range", "0..12", "--node-rule", "c3"),
        ("compare", "--alpha", "0", "--n-range", "1..20", "--node-rule", "c4"),
        ("compare", "--alpha", "0.5", "--n-range", "2..20"),
    ],
)
def test_constant_tables_print_without_numpy(argv, fmt, capsys):
    argv = [*argv, "--format", fmt]
    child = _run_fresh(["-c", WITHOUT_NUMPY, *argv])
    assert (child.returncode, child.stderr) == (0, b"")
    assert cli.main(argv) == 0
    assert child.stdout == capsys.readouterr().out.encode("utf-8")


def test_compare_golden_prints_without_numpy():
    argv = ["compare", "--alpha", "0", "--n-range", "1..20", "--node-rule", "c4"]
    child = _run_fresh(["-c", WITHOUT_NUMPY, *argv], check=True)
    golden = pathlib.Path(__file__).parent / "golden" / "compare_c4_a0_n1_20.csv"
    assert child.stdout == golden.read_bytes()
