"""The streamed kernels agree with the whole tables they replace.

`fit_hahn` contracts each Hahn row against the data as the recurrence
produces it, the witness keeps only its top row, and `sup_error` sums
the approximant on its candidate grid in the Chebyshev basis.  The full
`hahn_table` and the single `table @ (f w)` product stay here as the
oracles these are checked against.
"""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahn_lsq import bounds, errors, hahn, lsq, registry

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
past_validated_range = pytest.mark.filterwarnings("ignore::hahn_lsq.errors.NumericalRangeWarning")

dyadic_alpha = st.integers(-3, 16).map(lambda k: k / 4)


def bits(values):
    return [struct.pack("<d", float(x)) for x in values]


@st.composite
def families(draw):
    N = draw(st.integers(1, 60))
    params = hahn.HahnParams(draw(dyadic_alpha), draw(dyadic_alpha), N)
    xs = draw(st.lists(st.floats(-1.0, 61.0, allow_nan=False), min_size=1, max_size=20))
    return params, draw(st.integers(0, N)), np.array(xs)


@past_validated_range
@PROPERTY
@given(families())
def test_streamed_rows_equal_table_rows(family):
    params, n, xs = family
    table = hahn.hahn_table(n, xs, params)
    rows = [bits(row) for row in hahn._hahn_rows(n, xs, params)]
    assert rows == [bits(row) for row in table]


@st.composite
def witnesses(draw):
    alpha = draw(st.integers(-1, 16).map(lambda k: k / 4))
    N = draw(st.integers(1, 60))
    n = draw(st.integers(0, min(N, int(bounds.degree_threshold(alpha, N))) - 1))
    return n, hahn.HahnParams(alpha, alpha, N)


@PROPERTY
@given(witnesses())
def test_witness_row_equals_table_row(witness):
    n, params = witness
    N = params.N
    ts = np.linspace(-1.0, 1.0, 2 * N + 1)
    front = (-1.0) ** (n + 1) * bounds.worst_case_constant(n, N, params.alpha)
    table_row = front * hahn.hahn_table(n + 1, N * (1.0 + ts) / 2.0, params)[n + 1]
    assert bits(lsq.extremal_function(n, params).evaluator(ts)) == bits(table_row)


CASES = [
    (0, 4, 0.0, 0.0),
    (8, 144, 0.0, 0.0),
    (30, 1860, 0.5, 0.5),
    (80, 12960, 0.7615, 0.7615),
    (40, 3280, 3.0, 0.0),
    (40, 3269, 0.7737, 1.9072),
]


def table_projection(name, n, params):
    """Streamed coefficients, the old table-product coefficients, and the
    sum of |terms| behind each, all over the same norms."""
    f = registry.resolve(name)
    _, fs, w = lsq._weighted_samples(f, n, params)
    table = hahn.hahn_table(n, np.arange(params.N + 1, dtype=float), params)
    norms = w.sum() * hahn._norm_ratios(n, params)
    streamed = np.array(lsq.fit_hahn(f, n, params).coefficients)
    return streamed, table @ (fs * w) / norms, np.abs(table) @ np.abs(fs * w) / norms


@past_validated_range
@pytest.mark.parametrize("name", ["exp", "sin3", "runge"])
@pytest.mark.parametrize("n, N, alpha, beta", [case for case in CASES if case[2:] != (3.0, 0.0)])
def test_streamed_coefficients_match_the_table_product(name, n, N, alpha, beta):
    streamed, oracle, _ = table_projection(name, n, hahn.HahnParams(alpha, beta, N))
    assert np.max(np.abs(streamed - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@past_validated_range
@pytest.mark.parametrize("name", ["exp", "sin3", "runge"])
@pytest.mark.parametrize("n, N, alpha, beta", CASES)
def test_streamed_coefficients_differ_only_by_summation_order(name, n, N, alpha, beta):
    # At alpha = 3, beta = 0 the high-degree sums cancel to 1e-13 of their
    # terms, so two summation orders differ by up to 3.5e-13 max|c|
    # there; against the terms both agree to a few ulps everywhere.
    streamed, oracle, terms = table_projection(name, n, hahn.HahnParams(alpha, beta, N))
    assert np.all(np.abs(streamed - oracle) <= 4 * np.finfo(float).eps * terms)


@past_validated_range
@pytest.mark.parametrize("n, N, alpha, beta", CASES)
def test_chebyshev_scan_matches_the_hahn_sum(n, N, alpha, beta):
    a = lsq.fit_hahn(registry.resolve("exp"), n, hahn.HahnParams(alpha, beta, N))
    hahn_sum = lsq.evaluate(a, lsq._candidates())
    assert np.max(np.abs(lsq._scan(a) - hahn_sum)) <= 1e-13 * np.max(np.abs(hahn_sum))


def test_chebyshev_table_grows_in_blocks_without_copies():
    before = list(lsq._chebyshev_table(1))
    blocks = lsq._chebyshev_table((len(before) + 2) * lsq._CHEBYSHEV_BLOCK + 1)
    assert len(blocks) == len(before) + 3
    assert all(new is old for new, old in zip(blocks, before))
    rows = np.concatenate(blocks)
    # numpy's Chebyshev Vandermonde matrix is an independent build of the
    # same rows; a recurrence loses up to about k ulps in degree k
    vander = np.polynomial.chebyshev.chebvander(lsq._candidates(), rows.shape[0] - 1).T
    k = np.arange(rows.shape[0])[:, None]
    assert np.all(np.abs(rows - vander) <= 2e-15 * np.maximum(k, 1))


def test_fit_and_scan_allocate_no_tables():
    # a (81 x 12961) projection table is 8.4 MB and an (81 x 14098) scan
    # table 9.1 MB; with the shared Chebyshev table warm neither is built
    params = hahn.HahnParams(0.7615, 0.7615, 12960)
    f = registry.resolve("exp")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", errors.NumericalRangeWarning)
        lsq.sup_error(f, lsq.fit_hahn(f, 80, params))
        tracemalloc.start()
        try:
            lsq.sup_error(f, lsq.fit_hahn(f, 80, params))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2**20
