import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cholesky_banded

from conftest import random_spd
from dense_oracles import dense_logdet_cholesky
from lejadet import (SparseMatrixCSR, band_logdet_cholesky, estimate, gen_gmrf_grid,
                     gen_pentadiagonal, gmrf_grid_logdet_analytic, load_matrix_market,
                     write_matrix_market)
from lejadet.oracle import band_cholesky


class TestDenseCholesky:
    def test_identity(self):
        assert dense_logdet_cholesky(np.eye(10)) == 0.0

    def test_diagonal(self):
        assert dense_logdet_cholesky(np.diag([1.0, 2.0, 3.0, 4.0, 5.0])) == \
            pytest.approx(math.log(120.0), abs=1e-12)

    def test_small_tridiag(self):
        val = dense_logdet_cholesky(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert val == pytest.approx(math.log(3.0), abs=1e-14)

    def test_not_spd(self):
        with pytest.raises(ValueError, match="positive definite"):
            dense_logdet_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            dense_logdet_cholesky(np.eye(10), max_n=5)

    def test_not_square(self):
        for arr in (np.ones((2, 3)), np.ones(3)):
            with pytest.raises(ValueError, match="matrix must be square"):
                dense_logdet_cholesky(arr)

    def test_not_symmetric(self):
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            dense_logdet_cholesky(np.array([[2.0, 1.0], [0.0, 2.0]]))

    def test_symmetry_is_checked_relative_to_scale(self):
        # Cholesky reads only the lower triangle: this matrix would give
        # -58.7686, where its log det is -58.2578
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            dense_logdet_cholesky(1e-13 * np.array([[2.0, 1.0], [-1.0, 2.0]]))
        val = dense_logdet_cholesky(1e-13 * np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert val == pytest.approx(math.log(3e-26), abs=1e-12)
        with pytest.raises(ValueError, match="not positive definite"):
            dense_logdet_cholesky(np.zeros((3, 3)))


class TestBandCholesky:
    def test_pentadiagonal_matches_dense(self):
        Q = gen_pentadiagonal(1000, seed=0)
        band = band_logdet_cholesky(Q, 2)
        dense = dense_logdet_cholesky(Q.to_scipy().toarray())
        assert band == pytest.approx(dense, rel=1e-9)

    def test_diagonal_band(self):
        Q = SparseMatrixCSR.from_scipy(np.diag([2.0, 3.0, 4.0]))
        assert band_logdet_cholesky(Q, 0) == pytest.approx(
            math.log(2.0) + math.log(3.0) + math.log(4.0), abs=1e-14)

    def test_entries_outside_band(self):
        Q = gen_pentadiagonal(20, seed=0)
        with pytest.raises(ValueError, match="outside bandwidth"):
            band_logdet_cholesky(Q, 1)

    def test_not_spd(self):
        Q = SparseMatrixCSR.from_scipy(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="positive definite"):
            band_logdet_cholesky(Q, 0)

    def test_bandwidth_refusals(self):
        Q = SparseMatrixCSR.from_scipy(np.diag([2.0, 3.0]))
        with pytest.raises(ValueError, match="bandwidth must be non-negative"):
            band_cholesky(Q, -1)
        # (10^8 + 1) * 2 entries of band storage: refused before any allocation
        with pytest.raises(ValueError, match="too wide-banded"):
            band_cholesky(Q, 100_000_000)

    def test_band_vs_dense_battery(self):
        for n, seed in [(200, 1), (800, 2), (2000, 3)]:
            Q = gen_pentadiagonal(n, seed=seed)
            band = band_logdet_cholesky(Q, 2)
            dense = dense_logdet_cholesky(Q.to_scipy().toarray())
            assert band == pytest.approx(dense, rel=1e-9)

    def test_bandwidth_beyond_order(self):
        # a band wider than the matrix holds zeros past its last subdiagonal
        Q = SparseMatrixCSR.from_scipy(np.diag([2.0, 3.0, 4.0]))
        assert band_logdet_cholesky(Q, 5) == pytest.approx(math.log(24.0), abs=1e-14)

    @pytest.mark.parametrize("make,bandwidth", [
        (lambda: gen_pentadiagonal(50_000, seed=1), 2),
        (lambda: gen_pentadiagonal(50_000, seed=1), 4),
        (lambda: gen_gmrf_grid(70, -0.24), 70),
        (lambda: random_spd(1, n=150, kappa=1e3)[0], 149),
        (lambda: signed_zeros(), 7),
    ], ids=["penta", "penta-wider", "lattice", "spd-full", "signed-zeros"])
    def test_factor_equals_band_of_diagonals(self, make, bandwidth):
        Q = make()
        assert band_cholesky(Q, bandwidth).tobytes() == band_by_diagonals(Q, bandwidth).tobytes()


def band_by_diagonals(Q, bandwidth):
    """The factor of the band whose row k is scipy's k-th subdiagonal of Q."""
    m = Q.to_scipy()
    ab = np.zeros((bandwidth + 1, Q.n), order="F")
    for off in range(bandwidth + 1):
        ab[off, :Q.n - off] = m.diagonal(-off)
    return cholesky_banded(ab, lower=True)


def signed_zeros():
    """A diagonal matrix of order 10 with a stored -0.0 pair at (3, 0) and
    (0, 3), and 0.5 at (9, 2) and (2, 9)."""
    i = np.r_[np.arange(10), 3, 0, 9, 2]
    j = np.r_[np.arange(10), 0, 3, 2, 9]
    v = np.r_[np.arange(1.0, 11.0), -0.0, -0.0, 0.5, 0.5]
    return SparseMatrixCSR.from_scipy(sp.csr_matrix((v, (i, j)), shape=(10, 10)))


class TestLatticeAnalytic:
    def test_theta_zero(self):
        assert gmrf_grid_logdet_analytic(7, 0.0) == 0.0

    def test_two_by_two_vs_dense(self):
        exact = dense_logdet_cholesky(gen_gmrf_grid(2, -0.22).to_scipy().toarray())
        assert gmrf_grid_logdet_analytic(2, -0.22) == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("theta", [-0.22, -0.1, 0.1, 0.2])
    @pytest.mark.parametrize("g", [2, 3, 5, 8])
    def test_matches_dense_cholesky(self, g, theta):
        """Validates the generator's neighbor structure and the eigenvalue
        formula against each other."""
        exact = dense_logdet_cholesky(gen_gmrf_grid(g, theta).to_scipy().toarray())
        analytic = gmrf_grid_logdet_analytic(g, theta)
        assert analytic == pytest.approx(exact, rel=1e-10, abs=1e-10)

    def test_invalid_theta(self):
        for theta in (0.3, math.nan):       # NaN fails |theta| < 1/4 too
            with pytest.raises(ValueError, match="1/4"):
                gmrf_grid_logdet_analytic(5, theta)


class TestLatticeRecognition:
    """exact-analytic reads (g, theta) off Q, and refuses any Q that is not
    the lattice gen_gmrf_grid(g, theta) bitwise."""

    @pytest.mark.parametrize("theta", [-0.22, 0.0, 0.2])
    @pytest.mark.parametrize("g", [2, 10, 30])
    def test_lattice_gets_its_closed_form(self, g, theta):
        rep = estimate(gen_gmrf_grid(g, theta), "exact-analytic")
        assert rep.estimate == gmrf_grid_logdet_analytic(g, theta)

    def test_lattice_read_back_from_a_file(self, tmp_path):
        write_matrix_market(gen_gmrf_grid(30, -0.22), tmp_path / "lattice.mtx")
        rep = estimate(load_matrix_market(tmp_path / "lattice.mtx"), "exact-analytic")
        assert rep.estimate == gmrf_grid_logdet_analytic(30, -0.22)

    @pytest.mark.parametrize("make", [
        # n = 100 is a square, and its entry (0, 1) of 1.41 is no lattice theta
        lambda: gen_pentadiagonal(100, seed=0),
        # entry (0, 1) is -0.2, a lattice theta, but the diagonal is 2
        lambda: SparseMatrixCSR.from_scipy(2 * gen_gmrf_grid(10, -0.1).to_scipy()),
        lambda: perturbed_pair(gen_gmrf_grid(10, -0.2), 37, 47),
        lambda: gen_pentadiagonal(50, seed=0),      # n is not a square
        lambda: SparseMatrixCSR.from_scipy(np.eye(1)),
    ], ids=["pentadiagonal-100", "twice-a-lattice", "perturbed-pair", "n-not-square",
            "one-row"])
    def test_other_matrices_refused(self, make):
        with pytest.raises(ValueError, match="^exact-analytic applies only to a lattice"):
            estimate(make(), "exact-analytic")


def perturbed_pair(Q, i, j):
    """Q with its symmetric pair (i, j), (j, i) moved by one rounding."""
    m = Q.to_scipy().copy()
    m[i, j] = m[j, i] = np.nextafter(m[i, j], 0.0)
    return SparseMatrixCSR.from_scipy(m)
