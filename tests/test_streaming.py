"""The streamed kernels agree with the whole tables they replace.

`fit_hahn` contracts each Hahn row against the data as the recurrence
produces it, on half the grid when the weight is symmetric, the witness
keeps only its top row, and `sup_error` sums the approximant on its
candidate grid in the Chebyshev basis.  The full `hahn_table`, the
single `table @ (f w)` product and an extended-precision fit stay here
as the oracles these are checked against.
"""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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
    fs, w = lsq._weighted_samples(f, n, params)
    table = hahn.hahn_table(n, np.arange(params.N + 1, dtype=float), params)
    norms = w.sum() * hahn._norm_ratios(n, params)
    streamed = np.array(lsq.fit_hahn(f, n, params).coefficients)
    return streamed, table @ (fs * w) / norms, np.abs(table) @ np.abs(fs * w) / norms


def folded_table_product(name, n, params):
    """The symmetric fit as whole-table products: Q_k on x = 0..N//2
    against fw(x) + fw(N-x) for even k and fw(x) - fw(N-x) for odd k,
    with the middle node of an even N once in the even fold."""
    fs, w = lsq._weighted_samples(registry.resolve(name), n, params)
    N, half = params.N, params.N // 2
    fw = fs * w
    head, tail = fw[: half + 1], fw[::-1][: half + 1]
    even, odd = head + tail, head - tail
    if N % 2 == 0:
        even[half] = fw[half]
    table = hahn.hahn_table(n, np.arange(half + 1, dtype=float), params)
    dots = np.where(np.arange(n + 1) % 2 == 0, table @ even, table @ odd)
    return dots / (w.sum() * hahn._norm_ratios(n, params))


@past_validated_range
@pytest.mark.parametrize("name", ["exp", "sin3", "runge"])
@pytest.mark.parametrize("n, N, alpha, beta", [case for case in CASES if case[2:] != (3.0, 0.0)])
def test_streamed_coefficients_match_the_table_product(name, n, N, alpha, beta):
    # a symmetric fit runs on half the grid, so its oracle is the folded
    # product; the full-grid one differs from it by a change of summation
    # order (6.6e-14 max|c| for exp at n = 80, and an exact 0 against
    # -5.6e-18 for the odd sin3 at n = 0)
    params = hahn.HahnParams(alpha, beta, N)
    streamed, oracle, _ = table_projection(name, n, params)
    if params.symmetric:
        oracle = folded_table_product(name, n, params)
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
@pytest.mark.parametrize("name", ["exp", "sin3", "runge"])
@pytest.mark.parametrize("n, N, alpha, beta", [case for case in CASES if case[2] == case[3]])
def test_folded_fit_is_as_accurate_as_the_full_grid(name, n, N, alpha, beta):
    # Distances max|c - c_ld| / max|c_ld| from the same fit in extended
    # precision, fold against full grid, measured: 5.3e-16 / 4.9e-16 (exp)
    # and 2.9e-16 / 1.7e-16 (sin3) at n = 8; 1.3e-14 / 1.3e-14 (exp) at
    # n = 30; 9.5e-14 / 1.0e-13 (exp) and 5.6e-14 / 5.4e-14 (runge) at
    # n = 80.  Both carry the same double-precision weight and recurrence,
    # so the fold may lose by its summation order alone: 10% and two ulps.
    params = hahn.HahnParams(alpha, beta, N)
    folded, full, _ = table_projection(name, n, params)
    fs, _ = lsq._weighted_samples(registry.resolve(name), n, params)
    reference = oracles.longdouble_fit(fs, n, alpha, beta, N)
    scale = float(np.max(np.abs(reference))) or 1.0
    folded_off = float(np.max(np.abs(folded - reference))) / scale
    full_off = float(np.max(np.abs(full - reference))) / scale
    assert folded_off <= 1.1 * full_off + 2 * np.finfo(float).eps


@past_validated_range
@pytest.mark.parametrize("n, N, alpha, beta", CASES)
def test_chebyshev_scan_matches_the_hahn_sum(n, N, alpha, beta):
    a = lsq.fit_hahn(registry.resolve("exp"), n, hahn.HahnParams(alpha, beta, N))
    hahn_sum = lsq.evaluate(a, lsq._candidates())
    scan = lsq._scan(lsq._chebyshev_coefficients(a))
    assert np.max(np.abs(scan - hahn_sum)) <= 1e-13 * np.max(np.abs(hahn_sum))


def test_candidates_are_a_symmetric_superset_of_the_old_grid():
    c = lsq._candidates()
    assert np.array_equal(c, -c[::-1])
    assert np.all(np.diff(c) > 0)
    assert {-1.0, 0.0, 1.0} <= set(c.tolist())
    # the old set: 10001 equispaced points on [-1,1] union cos(k pi/4096),
    # k = 0..4096, 14096 points, with both 0 and cos(pi/2) = 6e-17; the
    # new one keeps only the exact 0, so it has 14095
    old = np.union1d(np.linspace(-1.0, 1.0, 10001), np.cos(np.arange(4097) * (np.pi / 4096.0)))
    assert (old.size, c.size) == (14096, 14095)
    right = np.clip(np.searchsorted(c, old), 1, c.size - 1)
    nearest = np.minimum(np.abs(c[right] - old), np.abs(c[right - 1] - old))
    assert np.max(nearest) <= 4e-16


def test_chebyshev_blocks_are_shared_read_only_and_bounded():
    blocks = [lsq._chebyshev_block(i) for i in range(3)]
    assert all(lsq._chebyshev_block(i) is block for i, block in enumerate(blocks))
    assert not any(block.flags.writeable for block in blocks)
    rows = np.concatenate(blocks)
    # numpy's Chebyshev Vandermonde matrix is an independent build of the
    # same rows on t >= 0; a recurrence loses up to about k ulps in degree k
    half = lsq._half_candidates()
    assert np.array_equal(half, lsq._candidates()[half.size - 1 :])
    vander = np.polynomial.chebyshev.chebvander(half, rows.shape[0] - 1).T
    k = np.arange(rows.shape[0])[:, None]
    assert np.all(np.abs(rows - vander) <= 2e-15 * np.maximum(k, 1))
    # a scan at n = 200 needs 13 blocks and keeps 8; an evicted block is
    # built again to the same bits
    a = lsq.Approximant(hahn.HahnParams(0.0, 0.0, 400), 200, (1.0,) + (0.0,) * 200)
    with pytest.warns(errors.NumericalRangeWarning):
        lsq.sup_error(registry.resolve("const1"), a)
    assert lsq._chebyshev_block.cache_info().currsize <= 8
    rebuilt = [lsq._chebyshev_block(i) for i in range(3)]
    assert rebuilt[0] is not blocks[0]
    assert np.concatenate(rebuilt).tobytes() == rows.tobytes()


@past_validated_range
@pytest.mark.parametrize("name", ["exp", "sin3", "runge"])
@pytest.mark.parametrize("n, N, alpha, beta", CASES)
def test_polish_objective_equals_the_scan_at_the_grid_argmax(name, n, N, alpha, beta):
    # The scan and the polish sum one Chebyshev series, by a matrix
    # product and by Clenshaw's recurrence, so the polish cannot win on
    # the difference between two evaluations of the approximant.  They
    # agree within 1.5 eps sum|c_k| here, except for runge at alpha = 3,
    # beta = 0, n = 40, where the error is 1.7 at t = -1 and Clenshaw
    # is off by 5.5 eps sum|c_k| (the Hahn sum by 48).
    f = registry.resolve(name)
    a = lsq.fit_hahn(f, n, hahn.HahnParams(alpha, beta, N))
    coefficients = lsq._chebyshev_coefficients(a)
    cand = lsq._candidates()
    errs = np.abs(lsq._sample(f, cand) - lsq._scan(coefficients))
    i = int(np.argmax(errs))
    t = float(cand[i])
    polish = abs(float(lsq._sample(f, t)) - lsq._clenshaw(coefficients.tolist(), t))
    assert abs(polish - errs[i]) <= 8 * np.finfo(float).eps * np.sum(np.abs(coefficients))


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


def test_endpoint_check_streams_its_rows():
    # the whole (11 x 64001) table it once built is 5.6 MB
    tracemalloc.start()
    try:
        assert oracles.endpoint_max_check(10, 0.0, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
