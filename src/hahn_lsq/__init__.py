"""Discrete least-squares approximation on equidistant grids via Hahn expansions."""

from .bounds import (
    BoundReport,
    bound_report,
    degree_threshold,
    min_nodes,
    ratio_discrete_continuous,
    simplified_constant,
    worst_case_constant,
)
from .errors import (
    HahnLsqError,
    InstabilityError,
    MissingDerivativeBoundError,
    NumericalRangeWarning,
    ParameterError,
    ThresholdError,
)
from .hahn import DiscreteWeight, HahnParams, hahn_norm_sq, hahn_table
from .jacobi import continuous_constant
from .lsq import (
    Approximant,
    ErrorReport,
    FunctionSpec,
    class_K_defect,
    evaluate,
    extremal_function,
    fit_hahn,
    grid_points,
    sup_error,
)
from .registry import polynomial_function, resolve, sine_function

__version__ = "0.1.0"

__all__ = [
    "Approximant",
    "BoundReport",
    "DiscreteWeight",
    "ErrorReport",
    "FunctionSpec",
    "HahnLsqError",
    "HahnParams",
    "InstabilityError",
    "MissingDerivativeBoundError",
    "NumericalRangeWarning",
    "ParameterError",
    "ThresholdError",
    "bound_report",
    "class_K_defect",
    "continuous_constant",
    "degree_threshold",
    "evaluate",
    "extremal_function",
    "fit_hahn",
    "grid_points",
    "hahn_norm_sq",
    "hahn_table",
    "min_nodes",
    "polynomial_function",
    "ratio_discrete_continuous",
    "resolve",
    "simplified_constant",
    "sine_function",
    "sup_error",
    "worst_case_constant",
]
