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
    for name in hahn_lsq.__all__:
        assert getattr(hahn_lsq, name) is not None, name


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
    tree = ast.parse((PACKAGE / "jacobi.py").read_text(encoding="utf-8"))
    defined = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert defined == ["continuous_constant"]
    assert bounds.continuous_constant is jacobi.continuous_constant


@pytest.mark.parametrize("module", ["jacobi.py", "bounds.py", "errors.py"])
def test_scalar_modules_do_not_import_numpy(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported


def test_cli_import_does_not_load_fractions():
    # exact rationals are for the test oracles; the CLI runs in floats
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = "import sys, hahn_lsq.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert child.stdout.strip() == "[]"
