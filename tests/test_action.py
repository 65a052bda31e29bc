import math

import numpy as np
import pytest
from scipy.linalg.blas import ddot

from conftest import gmrf_spectrum, random_spd
from lejadet import (MapParams, SparseMatrixCSR, SpectralInterval,
                     divided_differences_log, gen_gmrf_grid, generate_fast_leja,
                     gershgorin_bounds, log_matvec, map_params)


def make_dd(interval, count=512, scaling="center"):
    mp = map_params(interval)
    return mp, divided_differences_log(generate_fast_leja(count), mp, scaling=scaling)


class TestSmallCases:
    def test_scalar_multiple_of_identity(self):
        e = math.e
        Q = SparseMatrixCSR.from_dense(np.diag([e, e, e]))
        mp, dd = make_dd(SpectralInterval(0.9 * e, 1.1 * e))
        v = np.ones(3)
        tol = 1e-9
        res = log_matvec(Q, v, mp, dd, tol=tol * np.linalg.norm(v))
        assert np.max(np.abs(res.vector - 1.0)) <= 10 * tol
        assert res.converged

    def test_identity_degenerate_path(self):
        Q = SparseMatrixCSR.from_dense(np.eye(4))
        mp = map_params(gershgorin_bounds(Q))
        assert mp.degenerate
        v = np.array([1.0, -2.0, 3.0, 0.5])
        res = log_matvec(Q, v, mp, None)
        np.testing.assert_array_equal(res.vector, np.zeros(4))
        assert res.degree_used == 0 and res.matvecs == 0 and res.converged

    def test_dense_eigen_oracle_first_basis_vector(self):
        Q, w, V = random_spd(11, n=50, kappa=40.0)
        mp, dd = make_dd(SpectralInterval(w.min(), w.max()))
        e1 = np.zeros(50)
        e1[0] = 1.0
        tol = 1e-9
        res = log_matvec(Q, e1, mp, dd, tol=tol)
        exact = V @ (np.log(w) * (V.T @ e1))
        assert np.linalg.norm(res.vector - exact) <= 50 * tol


class TestContracts:
    def test_matvec_count_equals_degree(self):
        Q, w, _ = random_spd(3, n=80, kappa=100.0)
        mp, dd = make_dd(SpectralInterval(w.min(), w.max()))
        v = np.random.default_rng(0).standard_normal(80)
        res = log_matvec(Q, v, mp, dd, tol=1e-8 * np.linalg.norm(v))
        assert res.matvecs == res.degree_used
        assert res.error_history.shape == (res.degree_used + 1,)
        assert res.converged and res.error_estimate <= 1e-8 * np.linalg.norm(v)

    def test_given_norm_matches_computed_one(self):
        # the estimators pass the ||v|| they have already taken; the result,
        # its degree and its error history are bitwise those of the default
        Q, w, _ = random_spd(3, n=80, kappa=100.0)
        mp, dd = make_dd(SpectralInterval(w.min(), w.max()))
        v = np.random.default_rng(1).standard_normal(80)
        a = log_matvec(Q, v, mp, dd)
        b = log_matvec(Q, v, mp, dd, v_norm=math.sqrt(ddot(v, v)))
        np.testing.assert_array_equal(a.vector, b.vector)
        np.testing.assert_array_equal(a.error_history, b.error_history)
        assert a.degree_used == b.degree_used

    def test_non_convergence_reported(self):
        Q, w, _ = random_spd(4, n=60, kappa=500.0)
        mp, dd = make_dd(SpectralInterval(w.min(), w.max()))
        v = np.ones(60)
        res = log_matvec(Q, v, mp, dd, tol=1e-12, max_degree=3)
        assert not res.converged
        assert res.degree_used == 3

    def test_mismatched_map_params(self):
        Q, w, _ = random_spd(5, n=40)
        mp, dd = make_dd(SpectralInterval(w.min(), w.max()))
        other = MapParams(c=mp.c * 1.01, gamma=mp.gamma)
        with pytest.raises(ValueError, match="different map parameters"):
            log_matvec(Q, np.ones(40), other, dd)

    def test_dd_required_when_not_degenerate(self):
        Q, w, _ = random_spd(6, n=40)
        mp = map_params(SpectralInterval(w.min(), w.max()))
        with pytest.raises(ValueError, match="required"):
            log_matvec(Q, np.ones(40), mp, None)

    def test_wrong_length_vector(self):
        Q, w, _ = random_spd(7, n=40)
        mp, dd = make_dd(SpectralInterval(w.min(), w.max()))
        with pytest.raises(ValueError, match="shape"):
            log_matvec(Q, np.ones(41), mp, dd)

    def test_overflow_names_the_step(self):
        # an interval wildly below the spectrum makes the scaled recurrence
        # iterate with a factor ~lambda/gamma per step until it overflows
        Q = SparseMatrixCSR.from_dense(np.diag([2.0, 3.0]))
        mp, dd = make_dd(SpectralInterval(1e-8, 3e-8), count=512)
        with pytest.raises(FloatingPointError, match="degree"):
            log_matvec(Q, np.ones(2), mp, dd, tol=0.0, max_degree=400)


class TestProperties:
    def test_oracle_agreement_battery(self):
        """Relative 2-norm error against the dense eigendecomposition stays
        within 100x the stopping tolerance."""
        tol = 1e-8
        for seed in range(8):
            Q, w, V = random_spd(200 + seed)
            mp, dd = make_dd(SpectralInterval(w.min(), w.max()))
            rng = np.random.default_rng(seed)
            v = rng.standard_normal(Q.n)
            res = log_matvec(Q, v, mp, dd, tol=tol * np.linalg.norm(v))
            exact = V @ (np.log(w) * (V.T @ v))
            rel = np.linalg.norm(res.vector - exact) / np.linalg.norm(exact)
            assert res.converged
            assert rel <= 100 * tol

    def test_linearity(self):
        Q, w, _ = random_spd(9, n=70, kappa=50.0)
        mp, dd = make_dd(SpectralInterval(w.min(), w.max()))
        rng = np.random.default_rng(2)
        v = rng.standard_normal(70)
        alpha = 3.7
        # force the same degree on both runs
        a = log_matvec(Q, v, mp, dd, tol=0.0, max_degree=30)
        b = log_matvec(Q, alpha * v, mp, dd, tol=0.0, max_degree=30)
        assert a.degree_used == b.degree_used == 30
        np.testing.assert_allclose(alpha * a.vector, b.vector, rtol=1e-12)

    def test_error_indicator_tracks_true_error(self):
        Q, w, V = random_spd(10, n=90, kappa=200.0)
        mp, dd = make_dd(SpectralInterval(w.min(), w.max()))
        v = np.random.default_rng(5).standard_normal(90)
        exact = V @ (np.log(w) * (V.T @ v))
        for tol in (1e-4, 1e-7, 1e-10):
            res = log_matvec(Q, v, mp, dd, tol=tol * np.linalg.norm(v))
            err = np.linalg.norm(res.vector - exact)
            assert err <= 100 * tol * np.linalg.norm(v)


def textbook_log_matvec(Q, v, mp, dd, degree):
    """Reference: the recurrence w <- (Q w - c w) / gamma - xi_m w, unfused."""
    m_sp = Q.to_scipy()
    w = v.copy()
    p = dd.coeffs[0] * w
    for m in range(degree):
        w = (m_sp @ w - mp.c * w) / mp.gamma - dd.nodes[m] * w
        p = p + dd.coeffs[m + 1] * w
    return p


class TestFusedStep:
    def cases(self):
        g, theta = 40, -0.24
        lam = gmrf_spectrum(g, theta)
        yield gen_gmrf_grid(g, theta), SpectralInterval(lam.min(), lam.max())
        for seed in (21, 22):
            Q, w, _ = random_spd(seed)
            yield Q, SpectralInterval(w.min(), w.max())

    def test_agrees_with_textbook_recurrence(self):
        for Q, interval in self.cases():
            mp, dd = make_dd(interval)
            v = np.random.default_rng(0).standard_normal(Q.n)
            res = log_matvec(Q, v, mp, dd, tol=1e-10 * np.linalg.norm(v))
            assert res.converged and res.degree_used > 10
            ref = textbook_log_matvec(Q, v, mp, dd, res.degree_used)
            assert np.linalg.norm(res.vector - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_input_untouched_and_strided_view_bitwise_equal(self):
        for Q, interval in self.cases():
            mp, dd = make_dd(interval)
            block = np.random.default_rng(1).standard_normal((Q.n, 3))  # row-major
            view = block[:, 1]
            assert not view.flags.c_contiguous
            before = block.copy()
            a = log_matvec(Q, view, mp, dd, tol=1e-9 * np.linalg.norm(view))
            b = log_matvec(Q, view.copy(), mp, dd, tol=1e-9 * np.linalg.norm(view))
            np.testing.assert_array_equal(block, before)
            np.testing.assert_array_equal(a.vector, b.vector)
            np.testing.assert_array_equal(a.error_history, b.error_history)
