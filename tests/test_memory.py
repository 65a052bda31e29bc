"""Memory budgets of matrix build and write, bounds, Hutch++, the exact
low-degree trace and the band oracle (tracemalloc).

numpy reports its array buffers to tracemalloc, so the traced peak above
the starting level is the largest set of arrays a call holds at once.  The
budgets are in CSR bytes or in dense n-vectors (8n bytes) at n ~= 2*10^5;
the working sets they bound are listed in each test.
"""

import tracemalloc

import pytest

from lejadet import (band_logdet_cholesky, estimate_interval, gen_gmrf_grid,
                     gen_pentadiagonal, generate_fast_leja, hutchpp_logdet,
                     write_matrix_market)
from lejadet.leja import DEFAULT_POOL_SIZE

N = 200_000


def traced_peak(func):
    """(result, peak bytes above the level at the call) of func()."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = func()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def penta():
    Q = gen_pentadiagonal(N, seed=0)
    return Q, estimate_interval(Q, "gershgorin")


def test_gen_pentadiagonal_peak():
    # the n x 5 band and its column pattern, then the CSR and its transpose
    # for the symmetry check; the held diagonal, then the Gershgorin pass's
    # ones vector and one row block, come after the transpose is dropped
    Q, peak = traced_peak(lambda: gen_pentadiagonal(N, seed=0))
    m = Q.to_scipy()
    csr = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    assert peak <= 2.5 * csr


def test_write_matrix_market_peak(penta, tmp_path):
    # scipy's COO view of the CSR (its expanded row indices), the lower-triangle
    # mask, and the lower triangle's values, rows and columns
    Q, _ = penta
    _, peak = traced_peak(lambda: write_matrix_market(Q, tmp_path / "penta.mtx"))
    m = Q.to_scipy()
    assert peak <= 1.25 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def test_gershgorin_interval_peak(penta):
    # the circle extremes are the matrix's own, taken at construction: the
    # enclosure allocates no array
    Q, _ = penta
    _, peak = traced_peak(lambda: estimate_interval(Q, "gershgorin"))
    assert peak <= 3 * 8 * N


def test_gershgorin_interval_holds_less_than_one_vector(penta):
    Q, _ = penta
    _, peak = traced_peak(lambda: estimate_interval(Q, "gershgorin"))
    assert peak < 8 * N


def test_hutchpp_peak_above_matrix():
    # image/basis (4 columns), int8 sketch and probes, one float probe and
    # the action's iterate, sum and product; on a lattice of n = 447^2 ~= N,
    # whose enclosure is too wide for an exact low-degree trace
    Q = gen_gmrf_grid(447, -0.22)
    bounds = estimate_interval(Q, "gershgorin")
    generate_fast_leja(DEFAULT_POOL_SIZE)      # the kept Leja run, built once
    rep, peak = traced_peak(lambda: hutchpp_logdet(Q, m_vec=12, seed=1, bounds=bounds))
    assert rep.queries == 12
    assert peak <= 12 * 8 * Q.n


def test_exact_trace_peak(penta):
    # the diagonal, shifted in place; the divided differences' smaller work
    # array is freed before it is taken
    Q, bounds = penta
    generate_fast_leja(DEFAULT_POOL_SIZE)
    rep, peak = traced_peak(lambda: hutchpp_logdet(Q, m_vec=12, seed=1, bounds=bounds))
    assert rep.queries == 0
    assert peak <= 2 * 8 * N


def test_band_logdet_cholesky_peak(penta):
    # the (bandwidth + 1) x n band, factored in place, and the log of its diagonal
    Q, _ = penta
    _, peak = traced_peak(lambda: band_logdet_cholesky(Q, 2))
    assert peak <= 9 * 8 * N
