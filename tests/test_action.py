import dataclasses
import math

import numpy as np
import pytest
from scipy.fft import dstn

from conftest import gmrf_spectrum, random_spd
from lejadet import SparseMatrixCSR, SpectralInterval, gen_gmrf_grid, generate_fast_leja
from lejadet.action import log_matvec
from lejadet.divdiff import divided_differences_log
from lejadet.spectral import gershgorin_bounds


def make_dd(interval, count=512):
    return divided_differences_log(generate_fast_leja(count), interval)


def make_form_dd(interval, products=400):
    """Divided differences on the doubled Leja sequence (xi_0, xi_0, xi_1,
    xi_1, ...): 2 * products + 1 of them, a form's cap of ``products``."""
    xi = generate_fast_leja(products + 1)
    return divided_differences_log(np.repeat(xi, 2)[:2 * products + 1], interval)


def capped(dd, degree):
    """``dd`` cut to its first degree + 1 entries: the table is the degree cap."""
    return dataclasses.replace(dd, coeffs=dd.coeffs[:degree + 1],
                               nodes=dd.nodes[:degree + 1])


class TestSmallCases:
    def test_scalar_multiple_of_identity(self):
        e = math.e
        Q = SparseMatrixCSR.from_scipy(np.diag([e, e, e]))
        dd = make_dd(SpectralInterval(0.9 * e, 1.1 * e))
        v = np.ones(3)
        tol = 1e-9
        res = log_matvec(Q, v, dd, rtol=tol)
        assert np.max(np.abs(res.vector - 1.0)) <= 10 * tol
        assert res.converged

    @pytest.mark.parametrize("c", [1.0, 3.0])
    def test_identity_degenerate_path(self, c):
        # Gershgorin encloses c I in [c, c]: gamma = 0, and log(c) v at degree 0
        Q = SparseMatrixCSR.from_scipy(c * np.eye(4))
        interval = gershgorin_bounds(Q)
        assert interval.gamma == 0.0
        v = np.array([1.0, -2.0, 3.0, 0.5])
        res = log_matvec(Q, v, make_dd(interval), rtol=0.0)
        np.testing.assert_array_equal(res.vector, math.log(c) * v)
        np.testing.assert_array_equal(res.error_history, [0.0])
        assert res.degree_used == 0 and res.matvecs == 0 and res.converged
        res = log_matvec(Q, v, make_form_dd(interval), rtol=0.0, form=True)
        assert res.vector is None and res.form == math.log(c) * (v @ v)
        assert res.degree_used == 0 and res.converged

    def test_dense_eigen_oracle_first_basis_vector(self):
        Q, w, V = random_spd(11, n=50, kappa=40.0)
        dd = make_dd(SpectralInterval(w.min(), w.max()))
        e1 = np.zeros(50)
        e1[0] = 1.0
        tol = 1e-9
        res = log_matvec(Q, e1, dd, rtol=tol)
        exact = V @ (np.log(w) * (V.T @ e1))
        assert np.linalg.norm(res.vector - exact) <= 50 * tol


class TestContracts:
    def test_matvec_count_equals_degree(self):
        Q, w, _ = random_spd(3, n=80, kappa=100.0)
        dd = make_dd(SpectralInterval(w.min(), w.max()))
        v = np.random.default_rng(0).standard_normal(80)
        res = log_matvec(Q, v, dd, rtol=1e-8)
        assert res.matvecs == res.degree_used
        assert res.error_history.shape == (res.degree_used + 1,)
        assert res.converged and res.error_estimate <= 1e-8 * np.linalg.norm(v)

    def test_non_convergence_reported(self):
        Q, w, _ = random_spd(4, n=60, kappa=500.0)
        dd = make_dd(SpectralInterval(w.min(), w.max()))
        v = np.ones(60)
        res = log_matvec(Q, v, capped(dd, 3), rtol=1e-12)
        assert not res.converged
        assert res.degree_used == 3

    def test_wrong_length_vector(self):
        Q, w, _ = random_spd(7, n=40)
        dd = make_dd(SpectralInterval(w.min(), w.max()))
        with pytest.raises(ValueError, match="shape"):
            log_matvec(Q, np.ones(41), dd, rtol=1e-7)

    def test_overflow_names_the_step(self):
        # an interval wildly below the spectrum makes the scaled recurrence
        # iterate with a factor ~lambda/gamma per step until it overflows
        Q = SparseMatrixCSR.from_scipy(np.diag([2.0, 3.0]))
        dd = make_dd(SpectralInterval(1e-8, 3e-8), count=512)
        with pytest.raises(FloatingPointError, match="degree"):
            log_matvec(Q, np.ones(2), capped(dd, 400), rtol=0.0)


    def test_form_refuses_a_table_on_single_nodes(self):
        Q = gen_gmrf_grid(10, -0.2)
        dd = make_dd(gershgorin_bounds(Q))
        with pytest.raises(ValueError, match="doubled sequence"):
            log_matvec(Q, np.ones(Q.n), dd, rtol=1e-7, form=True)

    def test_nan_or_negative_tolerance_refused(self):
        # a NaN tolerance used to stop at degree 0 and report convergence
        Q = gen_gmrf_grid(10, -0.2)
        dd = make_dd(gershgorin_bounds(Q))
        for tol in (float("nan"), -1e-8):
            with pytest.raises(ValueError, match="rtol must be non-negative"):
                log_matvec(Q, np.ones(Q.n), dd, rtol=tol)


class TestProperties:
    def test_oracle_agreement_battery(self):
        """Relative 2-norm error against the dense eigendecomposition stays
        within 100x the stopping tolerance."""
        tol = 1e-8
        for seed in range(8):
            Q, w, V = random_spd(200 + seed)
            dd = make_dd(SpectralInterval(w.min(), w.max()))
            rng = np.random.default_rng(seed)
            v = rng.standard_normal(Q.n)
            res = log_matvec(Q, v, dd, rtol=tol)
            exact = V @ (np.log(w) * (V.T @ v))
            rel = np.linalg.norm(res.vector - exact) / np.linalg.norm(exact)
            assert res.converged
            assert rel <= 100 * tol

    def test_linearity(self):
        Q, w, _ = random_spd(9, n=70, kappa=50.0)
        dd = make_dd(SpectralInterval(w.min(), w.max()))
        rng = np.random.default_rng(2)
        v = rng.standard_normal(70)
        alpha = 3.7
        # force the same degree on both runs
        a = log_matvec(Q, v, capped(dd, 30), rtol=0.0)
        b = log_matvec(Q, alpha * v, capped(dd, 30), rtol=0.0)
        assert a.degree_used == b.degree_used == 30
        np.testing.assert_allclose(alpha * a.vector, b.vector, rtol=1e-12)

    def test_error_indicator_tracks_true_error(self):
        Q, w, V = random_spd(10, n=90, kappa=200.0)
        dd = make_dd(SpectralInterval(w.min(), w.max()))
        v = np.random.default_rng(5).standard_normal(90)
        exact = V @ (np.log(w) * (V.T @ v))
        for tol in (1e-4, 1e-7, 1e-10):
            res = log_matvec(Q, v, dd, rtol=tol)
            err = np.linalg.norm(res.vector - exact)
            assert err <= 100 * tol * np.linalg.norm(v)


def textbook_log_matvec(Q, v, dd, degree):
    """Reference: the recurrence w <- (Q w - c w) / gamma - xi_m w, unfused."""
    m_sp = Q.to_scipy()
    c, gamma = dd.interval.c, dd.interval.gamma
    w = v.copy()
    p = dd.coeffs[0] * w
    for m in range(degree):
        w = (m_sp @ w - c * w) / gamma - dd.nodes[m] * w
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
            dd = make_dd(interval)
            v = np.random.default_rng(0).standard_normal(Q.n)
            res = log_matvec(Q, v, dd, rtol=1e-10)
            assert res.converged and res.degree_used > 10
            ref = textbook_log_matvec(Q, v, dd, res.degree_used)
            assert np.linalg.norm(res.vector - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_input_untouched_and_strided_view_bitwise_equal(self):
        for Q, interval in self.cases():
            dd = make_dd(interval)
            block = np.random.default_rng(1).standard_normal((Q.n, 3))  # row-major
            view = block[:, 1]
            assert not view.flags.c_contiguous
            before = block.copy()
            a = log_matvec(Q, view, dd, rtol=1e-9)
            b = log_matvec(Q, view.copy(), dd, rtol=1e-9)
            np.testing.assert_array_equal(block, before)
            np.testing.assert_array_equal(a.vector, b.vector)
            np.testing.assert_array_equal(a.error_history, b.error_history)


class TestQuadraticForm:
    """``form=True``: v' P(Q) v from the iterates' inner products, on the
    doubled Leja sequence."""

    @pytest.mark.parametrize("theta", [-0.22, -0.24, -0.2499, -0.24999])
    @pytest.mark.parametrize("g", [40, 100, 300])
    def test_lattice_forms_against_the_closed_form(self, g, theta):
        # the lattice's eigenvectors are the 2-D DST-I basis, so v' log(Q) v
        # is the sum of log(lambda) over the squared orthonormal DST-I
        # coefficients of v; every form is within tol ||v||^2 of it, up to
        # kappa = 2.1e4 (g = 300, theta = -0.24999)
        lam = gmrf_spectrum(g, theta)
        dd = make_form_dd(SpectralInterval(lam.min(), lam.max()))
        Q = gen_gmrf_grid(g, theta)
        v = np.random.default_rng(g).integers(0, 2, Q.n) * 2.0 - 1.0
        exact = float(np.sum(dstn(v.reshape(g, g), type=1, norm="ortho") ** 2
                             * np.log(lam)))
        for tol in (1e-2, 1e-4, 1e-7):
            res = log_matvec(Q, v, dd, rtol=tol, form=True)
            assert type(res.form) is float
            assert res.converged and res.error_estimate <= tol * Q.n
            assert abs(res.form - exact) <= tol * Q.n

    def test_equals_the_doubled_interpolant(self):
        # after k products the form is v' P(Q) v for the degree-2k Newton
        # interpolant on the doubled sequence, here stepped as a vector
        for Q, interval in TestFusedStep().cases():
            dd = make_form_dd(interval)
            v = np.random.default_rng(3).standard_normal(Q.n)
            for k in (0, 1, 2, 7, 20):
                res = log_matvec(Q, v, capped(dd, 2 * k), rtol=0.0, form=True)
                assert res.degree_used == res.matvecs == k
                assert res.error_history.shape == (k + 1,)
                ref = v @ textbook_log_matvec(Q, v, dd, 2 * k)
                assert abs(res.form - ref) <= 1e-12 * abs(ref)

    def test_fewer_products_than_a_vector_action(self):
        # at kappa = 200 the form takes 28 / 54 / 77 products where the
        # vector action takes 34 / 77 / 120, and unlike v' P(Q) v from the
        # vector action (6e-4 off at 1e-4) it stays within tol ||v||^2
        Q, w, V = random_spd(10, n=90, kappa=200.0)
        interval = SpectralInterval(w.min(), w.max())
        v = np.random.default_rng(5).standard_normal(90)
        exact = v @ (V @ (np.log(w) * (V.T @ v)))
        for tol in (1e-4, 1e-7, 1e-10):
            vec = log_matvec(Q, v, make_dd(interval), rtol=tol)
            res = log_matvec(Q, v, make_form_dd(interval), rtol=tol, form=True)
            assert abs(res.form - exact) <= tol * (v @ v)
            assert res.degree_used < vec.degree_used
