"""Named target functions for experiments and tests.

Fixed names keep runs reproducible without an expression parser:
const1, linear, poly:<c0,c1,...>, exp, sin<k>, runge, extremal:<n>.
"""

import functools
import math
import re

import numpy as np

from .errors import ParameterError
from .lsq import FunctionSpec, extremal_function

_SIN_NAME = re.compile(r"^sin([0-9]+)$")
_POLY_NAME = re.compile(r"^poly:(.+)$")
_EXTREMAL_NAME = re.compile(r"^extremal:([0-9]+)$")


def polynomial_function(coefficients, name=None):
    """FunctionSpec for c0 + c1 t + c2 t^2 + ...

    The derivative sup is the certified upper bound
    sum_{j>=m} |c_j| j!/(j-m)!, exact zero beyond the degree.  The
    parity is even or odd when the nonzero coefficients all sit at even
    or all at odd powers: Horner's rule then gives f(-t) = +-f(t) exactly.
    """
    coeffs = [float(c) for c in coefficients]
    if not coeffs:
        raise ParameterError("polynomial needs at least one coefficient")
    if not all(map(math.isfinite, coeffs)):
        raise ParameterError(f"polynomial coefficients must be finite, got {coeffs}")
    if name is None:
        name = "poly:" + ",".join(repr(c) for c in coeffs)

    def evaluator(t):
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), coeffs)

    def derivative_sup(order):
        total = 0.0
        for j in range(order, len(coeffs)):
            total += abs(coeffs[j]) * math.perm(j, order)
        return total

    parity = None
    if not any(coeffs[1::2]):
        parity = 1
    elif not any(coeffs[0::2]):
        parity = -1
    return FunctionSpec(name, evaluator, derivative_sup, parity)


def sine_function(k):
    """sin(k t) with derivative bound k^order (sup of k^m trig <= k^m)."""
    if k < 1:
        raise ParameterError(f"sine frequency must be >= 1, got {k}")

    def evaluator(t):
        return np.sin(k * np.asarray(t, dtype=float))

    return FunctionSpec(f"sin{k}", evaluator, lambda order: float(k) ** order, parity=-1)


def _exp_spec():
    # every derivative of e^t has sup e on [-1,1]
    return FunctionSpec("exp", lambda t: np.exp(np.asarray(t, dtype=float)), lambda order: math.e)


def _runge_spec():
    # deliberately no derivative certificate: bound claims are skipped
    def evaluator(t):
        arr = np.asarray(t, dtype=float)
        return 1.0 / (1.0 + 25.0 * arr * arr)

    return FunctionSpec("runge", evaluator, None, parity=1)


def resolve(name, params=None):
    """Look up a registry function by name.

    A fixed name gives one shared spec, so its samples on the sup_error
    candidates are taken once.  extremal:<n> builds the sharpness witness
    afresh and therefore needs the Hahn parameters of the intended fit.
    """
    match = _EXTREMAL_NAME.match(name)
    if match:
        if params is None:
            raise ParameterError("extremal:<n> requires grid parameters")
        return extremal_function(int(match.group(1)), params)
    return _resolve_fixed(name)


# sin<k> and poly: name unboundedly many targets, so only the 32 most
# recently resolved keep their spec
@functools.lru_cache(maxsize=32)
def _resolve_fixed(name):
    if name == "const1":
        return polynomial_function([1.0], name="const1")
    if name == "linear":
        return polynomial_function([0.0, 1.0], name="linear")
    if name == "exp":
        return _exp_spec()
    if name == "runge":
        return _runge_spec()
    match = _SIN_NAME.match(name)
    if match:
        return sine_function(int(match.group(1)))
    match = _POLY_NAME.match(name)
    if match:
        try:
            coeffs = [float(part) for part in match.group(1).split(",")]
        except ValueError as exc:
            raise ParameterError(f"bad polynomial coefficient list in {name!r}: {exc}") from exc
        return polynomial_function(coeffs)
    raise ParameterError(f"unknown function name {name!r}")
