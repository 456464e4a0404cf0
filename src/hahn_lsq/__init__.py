"""Discrete least-squares approximation on equidistant grids via Hahn expansions.

Each public name is imported from its module on first access (PEP 562),
so a process loads only the modules it uses: the `bounds` and `compare`
commands never import numpy.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each public name
_HOMES = {
    "BoundReport": "bounds",
    "bound_report": "bounds",
    "degree_threshold": "bounds",
    "min_nodes": "bounds",
    "ratio_discrete_continuous": "bounds",
    "simplified_constant": "bounds",
    "worst_case_constant": "bounds",
    "HahnLsqError": "errors",
    "InstabilityError": "errors",
    "MissingDerivativeBoundError": "errors",
    "NumericalRangeWarning": "errors",
    "ParameterError": "errors",
    "ThresholdError": "errors",
    "DiscreteWeight": "hahn",
    "HahnParams": "hahn",
    "hahn_norm_sq": "hahn",
    "hahn_table": "hahn",
    "continuous_constant": "bounds",
    "Approximant": "lsq",
    "ErrorReport": "lsq",
    "FunctionSpec": "lsq",
    "class_K_defect": "lsq",
    "evaluate": "lsq",
    "extremal_function": "lsq",
    "fit_hahn": "lsq",
    "grid_points": "lsq",
    "sup_error": "lsq",
    "polynomial_function": "registry",
    "resolve": "registry",
    "sine_function": "registry",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
