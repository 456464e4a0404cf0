"""The one-point paths agree bit for bit with the array paths.

`hahn._hahn_rows` is one kernel for a float x and for an array: a float
takes the same operations in the same order in plain floats, so a
scalar t of the witness gives the bits of a one-point array.  The
parabolic steps in `sup_error` evaluate the witness at floats, and rely
on those bits to agree with the array scan they start from.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahn_lsq import bounds, errors, hahn, lsq, registry

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# degrees past 40 are drawn on purpose; their tables warn
past_validated_range = pytest.mark.filterwarnings("ignore::hahn_lsq.errors.NumericalRangeWarning")

# dyadic parameters: every value is exact in binary
dyadic_alpha = st.integers(-3, 16).map(lambda k: k / 4)
unit_t = st.floats(-1.0, 1.0, allow_nan=False)


def bits(x):
    return struct.pack("<d", float(x))


@st.composite
def families(draw):
    N = draw(st.integers(1, 60))
    params = hahn.HahnParams(draw(dyadic_alpha), draw(dyadic_alpha), N)
    return params, draw(st.integers(0, N))


@st.composite
def witnesses(draw):
    alpha = draw(st.integers(-1, 16).map(lambda k: k / 4))
    N = draw(st.integers(1, 60))
    top = min(N, int(bounds.degree_threshold(alpha, N))) - 1
    n = draw(st.integers(0, top))
    return lsq.extremal_function(n, hahn.HahnParams(alpha, alpha, N))


@past_validated_range
@PROPERTY
@given(families(), st.floats(-1.0, 61.0, allow_nan=False))
def test_column_equals_one_point_table(family, x):
    params, n = family
    column = list(hahn._hahn_rows(n, x, params))
    table = hahn.hahn_table(n, [x], params)[:, 0]
    assert list(map(bits, column)) == list(map(bits, table))


@PROPERTY
@given(witnesses(), unit_t)
def test_scalar_witness_equals_array_witness(witness, t):
    assert bits(witness.evaluator(t)) == bits(witness.evaluator(np.array([t]))[0])


@past_validated_range
@pytest.mark.parametrize("n, N", [(30, 1860), (80, 12960)])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_large_degree_column_equals_one_point_table(n, N, alpha):
    params = hahn.HahnParams(alpha, alpha, N)
    column = list(hahn._hahn_rows(n, 1234.5, params))
    table = hahn.hahn_table(n, [1234.5], params)[:, 0]
    assert list(map(bits, column)) == list(map(bits, table))


@pytest.mark.parametrize("n, N", [(41, 2 * 41 * 42), (4, 10**4 + 1)])
def test_fits_past_the_validated_range_still_warn(n, N):
    # the polish sums Chebyshev coefficients by Clenshaw's recurrence and
    # checks no range, and a fit carries its values at the n+1 Chebyshev
    # points, so no table is built there: fit_hahn's walk and sup_error's
    # own range check on the carried values must still warn
    params = hahn.HahnParams(0.0, 0.0, N)
    f = registry.resolve("exp")
    with pytest.warns(errors.NumericalRangeWarning):
        a = lsq.fit_hahn(f, n, params)
    with pytest.warns(errors.NumericalRangeWarning):
        lsq.sup_error(f, a)
