"""Memory budgets of matrix build and write, bounds, Hutch++, SLQ, the exact
low-degree trace and the band oracle (tracemalloc).

numpy reports its array buffers to tracemalloc, so the traced peak above
the starting level is the largest set of arrays a call holds at once.  The
budgets are in CSR bytes or in dense n-vectors (8n bytes) at n ~= 2*10^5;
the working sets they bound are listed in each test.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from lejadet import (SparseMatrixCSR, band_logdet_cholesky, estimate_interval,
                     gen_gmrf_grid, gen_pentadiagonal, generate_fast_leja,
                     hutchpp_logdet, lanczos_lambda_max, shift_invert_lambda_min,
                     slq_logdet, write_matrix_market)
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


def csr_bytes(Q):
    m = Q.to_scipy()
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


def test_constructor_peak_above_inputs():
    # the held diagonal, the Gershgorin pass's ones vector and one block of
    # rows (its |values|, column indices and row sums); before them the
    # symmetry check's per-row counters and one block sorted by column; no
    # transposed copy of the matrix
    Q = gen_pentadiagonal(N, seed=0)
    arrays = [a.copy() for a in (Q.row_ptr, Q.col_idx, Q.values)]
    _, peak = traced_peak(lambda: SparseMatrixCSR(*arrays))
    assert peak <= 2.5 * 8 * N


def test_constructor_peak_on_scattered_pattern():
    # each block's columns span nearly all rows, so the symmetry check sorts
    # it by its distinct columns: the per-row counters (one n-vector) and one
    # block's np.unique order, ranks, sorted copy and mirror positions; then
    # the diagonal, ones vector and Gershgorin block; no transposed copy
    rng = np.random.default_rng(0)
    i, j = rng.integers(0, N, size=(2, 2 * N))
    m = sp.csr_matrix((np.r_[np.full(N, 10.0), np.ones(4 * N)],
                       (np.r_[np.arange(N), i, j], np.r_[np.arange(N), j, i])), shape=(N, N))
    m.sum_duplicates()
    _, peak = traced_peak(lambda: SparseMatrixCSR(m.indptr, m.indices, m.data))
    assert peak <= 3 * 8 * N


def test_gen_pentadiagonal_peak():
    # the n x 5 slot arrays, whose middles are the CSR arrays, and one
    # draw (or the row numbers); then the constructor's peak above its
    # inputs
    Q, peak = traced_peak(lambda: gen_pentadiagonal(N, seed=0))
    assert peak <= csr_bytes(Q) + 3 * 8 * N


def test_gen_gmrf_grid_peak():
    # the CSR arrays, written directly from patterns of O(g) entries; then
    # the constructor's peak above its inputs
    Q, peak = traced_peak(lambda: gen_gmrf_grid(447, -0.22))
    assert peak <= csr_bytes(Q) + 2.5 * 8 * Q.n


def test_write_matrix_market_peak(penta, tmp_path):
    # scipy's COO view of the CSR (its expanded row indices), the lower-triangle
    # mask, and the lower triangle's values, rows and columns
    Q, _ = penta
    _, peak = traced_peak(lambda: write_matrix_market(Q, tmp_path / "penta.mtx"))
    assert peak <= 1.25 * csr_bytes(Q)


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


@pytest.mark.parametrize("make", [lambda: gen_pentadiagonal(N, seed=0),
                                  lambda: gen_gmrf_grid(447, -0.24)],
                         ids=["penta", "lattice"])
def test_lanczos_lambda_max_peak(make):
    # the Lanczos vectors q_{j-1} and q_j and the product being formed: the
    # start vector is freed once normalized, and each product once the
    # update has read it
    Q = make()
    _, peak = traced_peak(lambda: lanczos_lambda_max(Q))
    assert peak <= 3.5 * 8 * Q.n


@pytest.mark.parametrize("make", [lambda: gen_pentadiagonal(N, seed=0),
                                  lambda: gen_gmrf_grid(447, -0.24)],
                         ids=["penta", "lattice"])
def test_shift_invert_lambda_min_peak(make):
    # the two Lanczos vectors and a CG solve's iterate, residual, direction,
    # product and update temporaries; every solve holds the same set, so
    # three steps reach the peak of a full run (the lattice's takes 6,000
    # CG iterations)
    Q = make()
    _, peak = traced_peak(lambda: shift_invert_lambda_min(Q, max_iter=3))
    assert peak <= 7.5 * 8 * Q.n


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


@pytest.mark.parametrize("make,m_l,steps",
                         [(lambda: gen_pentadiagonal(N, seed=0), 40, 2),
                          (lambda: gen_gmrf_grid(447, -0.22), 40, 29),
                          (lambda: gen_gmrf_grid(447, -0.2499), 80, 80),
                          (lambda: gen_pentadiagonal(N, seed=0), 80, 2)],
                         ids=["penta", "lattice", "lattice-degree80", "penta-degree80"])
def test_slq_peak(make, m_l, steps):
    # the int8 probe block (10 columns), one float probe, the Lanczos vectors
    # q_{j-1} and q_j, and the product being formed; no n x m_l basis, at
    # any degree.  Every probe stops on its Gauss-Radau bracket except at
    # theta = -0.2499 (condition number about 5e3), where the bracket does
    # not close within 80 steps and every probe runs them all: the
    # pentadiagonal's after 2 steps, the theta = -0.22 lattice's after 29
    Q = make()
    rep, peak = traced_peak(lambda: slq_logdet(Q, m_l, 10, seed=0))
    assert rep.matvecs_total == 10 * steps
    assert rep.bracket_stops == (10 if steps < m_l else 0)
    assert peak <= 8 * 8 * Q.n


def test_exact_trace_peak(penta):
    # one block of rows of the diagonal, shifted into a buffer, and the
    # divided differences' work arrays
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


def test_band_logdet_cholesky_peak_above_band(penta):
    # the band, written from the CSR one block of rows at a time, factored in
    # place and its diagonal's log taken in place; the bandwidth check's and
    # the fill's block temporaries
    Q, _ = penta
    bandwidth = 2
    _, peak = traced_peak(lambda: band_logdet_cholesky(Q, bandwidth))
    assert peak <= (bandwidth + 1 + 0.5) * 8 * N


def test_bandwidth_peak(penta):
    # one block of rows: which of its rows store entries, and their first columns
    Q, _ = penta
    width, peak = traced_peak(Q.bandwidth)
    assert width == 2
    assert peak <= 0.5 * 8 * N
