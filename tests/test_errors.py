"""The package's error classes and the normal-range check."""

import ast
import math
import pathlib
import sys

import pytest

from hahn_lsq import errors


def test_errors_module_defines_one_class_per_way_an_error_is_handled():
    tree = ast.parse(pathlib.Path(errors.__file__).read_text(encoding="utf-8"))
    defined = {
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert defined == {
        "HahnLsqError",
        "ParameterError",
        "MissingDerivativeBoundError",
        "ThresholdError",
        "InstabilityError",
        "NumericalRangeWarning",
        "require_normal",
    }
    handled = {name for name in defined if name.endswith("Error")}
    assert all(issubclass(getattr(errors, name), errors.HahnLsqError) for name in handled)


class TestRequireNormal:
    @pytest.mark.parametrize("value", [sys.float_info.min, 1.0, 1e308, math.inf])
    def test_normal_value_is_returned_unchanged(self, value):
        assert errors.require_normal(value, "C_{}", 3) is value

    @pytest.mark.parametrize("value", [sys.float_info.min / 2, 5e-324, 0.0])
    def test_value_below_the_normal_range_raises(self, value):
        with pytest.raises(errors.InstabilityError, match=r"^C_3 at alpha=0\.5 = .* underflows"):
            errors.require_normal(value, "C_{} at alpha={!r}", 3, 0.5)

    def test_message_is_built_only_when_raising(self):
        class Unformattable:
            def __format__(self, spec):
                raise AssertionError("message built for a normal value")

        assert errors.require_normal(2.0, "{}", Unformattable()) == 2.0
        with pytest.raises(AssertionError):
            errors.require_normal(0.0, "{}", Unformattable())
