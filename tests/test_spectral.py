import numpy as np
import pytest

from conftest import gmrf_spectrum, random_spd
from lejadet import (ConvergenceError, MapParams, SparseMatrixCSR,
                     SpectralInterval, estimate_interval, gen_gmrf_grid,
                     gershgorin_bounds, lanczos_lambda_max, map_params,
                     shift_invert_lambda_min)


class TestGershgorin:
    def test_diagonal(self):
        Q = SparseMatrixCSR.from_dense(np.diag([1.0, 2.0, 3.0]))
        iv = gershgorin_bounds(Q)
        assert iv.lambda_min == 1.0 and iv.lambda_max == 3.0

    def test_tridiag_two(self):
        Q = SparseMatrixCSR.from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        iv = gershgorin_bounds(Q)
        # centers 2, radii 1; true spectrum is {1, 3}
        assert iv.lambda_min == 1.0 and iv.lambda_max == 3.0

    def test_gmrf_grid_bound(self):
        Q = gen_gmrf_grid(100, -0.22)
        iv = gershgorin_bounds(Q)
        assert iv.lambda_min == pytest.approx(0.12, abs=1e-15)
        assert iv.lambda_max == pytest.approx(1.88, abs=1e-15)

    def test_eps_floor_guards_negative_bound(self):
        Q = SparseMatrixCSR.from_dense(np.array([[1.0, -2.0], [-2.0, 1.0]]))
        iv = gershgorin_bounds(Q)
        assert iv.lambda_min == pytest.approx(1e-8 * 3.0)

    def test_requires_symmetry(self):
        Q = SparseMatrixCSR.from_dense(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            gershgorin_bounds(Q)

    def test_large_pentadiagonal_stays_positive(self):
        # diagonal dominance: diagonal >= n against row radii below 8
        from lejadet import gen_pentadiagonal
        iv = gershgorin_bounds(gen_pentadiagonal(100_000, seed=0))
        assert iv.lambda_min > 1.0

    def test_encloses_true_spectrum(self):
        for seed in range(5):
            Q, w, _ = random_spd(seed, n=120)
            iv = gershgorin_bounds(Q)
            assert iv.lambda_max >= w.max()
            # floored lower bound is still a lower bound for these spectra
            assert iv.lambda_min <= w.min()

    def test_bitwise_equal_to_entrywise_row_sums(self):
        from lejadet import gen_pentadiagonal
        for Q in (gen_pentadiagonal(10_000, seed=1), random_spd(3, n=120)[0]):
            rows = np.repeat(np.arange(Q.n), np.diff(Q.row_ptr))
            diag = Q.to_scipy().diagonal()
            radius = (np.bincount(rows, weights=np.abs(Q.values), minlength=Q.n)
                      - np.abs(diag))
            iv = gershgorin_bounds(Q)
            assert iv.lambda_max == np.max(diag + radius)
            assert iv.lambda_min == max(1e-8 * iv.lambda_max, np.min(diag - radius))


class TestLanczosExtremes:
    def test_known_diagonal(self):
        Q = SparseMatrixCSR.from_dense(np.diag(np.arange(1.0, 11.0)))
        est = lanczos_lambda_max(Q, tol=1e-12, seed=0)
        assert est.value == pytest.approx(10.0, abs=1e-8)

    def test_identity_one_iteration(self):
        Q = SparseMatrixCSR.from_dense(np.eye(6))
        est = lanczos_lambda_max(Q, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.iterations == 1
        assert est.breakdown

    def test_gmrf_grid_matches_analytic(self):
        Q = gen_gmrf_grid(50, -0.22)
        lam = gmrf_spectrum(50, -0.22)
        est = lanczos_lambda_max(Q, tol=1e-12, max_iter=400, seed=1)
        assert est.value == pytest.approx(lam.max(), abs=1e-6)

    def test_shift_invert_known_diagonal(self):
        Q = SparseMatrixCSR.from_dense(np.diag(np.arange(1.0, 11.0)))
        est = shift_invert_lambda_min(Q, tol=1e-9, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_shift_invert_identity(self):
        Q = SparseMatrixCSR.from_dense(np.eye(5))
        est = shift_invert_lambda_min(Q, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-10)
        assert est.matvecs == est.iterations      # one CG iteration per solve

    def test_shift_invert_tridiag(self):
        Q = SparseMatrixCSR.from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        est = shift_invert_lambda_min(Q, tol=1e-10, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-8)

    def test_cg_failure_carries_residual(self):
        Q, _, _ = random_spd(0, n=80, kappa=1e3)
        with pytest.raises(ConvergenceError) as exc:
            shift_invert_lambda_min(Q, tol=1e-10, seed=0, cg_max_iter=2)
        assert exc.value.residual > 0

    def test_estimates_inside_gershgorin(self):
        for seed in range(4):
            Q, w, _ = random_spd(seed + 50, n=100)
            iv = gershgorin_bounds(Q)
            hi = lanczos_lambda_max(Q, tol=1e-10, seed=seed).value
            lo = shift_invert_lambda_min(Q, tol=1e-8, seed=seed).value
            assert iv.lambda_min <= lo <= hi <= iv.lambda_max
            # and both sit near the true extremes
            assert hi == pytest.approx(w.max(), rel=1e-6)
            assert lo == pytest.approx(w.min(), rel=1e-5)

    def test_estimate_interval_lanczos_encloses(self):
        Q, w, _ = random_spd(7, n=150)
        iv = estimate_interval(Q, method="lanczos", seed=3)
        assert iv.method == "lanczos"
        assert iv.lambda_min <= w.min() and iv.lambda_max >= w.max()
        hi = lanczos_lambda_max(Q, tol=1e-8, seed=3)
        assert iv.matvecs > hi.matvecs == hi.iterations

    @pytest.mark.parametrize("kappa", [1e2, 1e4])
    def test_default_rule_encloses_floored_matrices(self, kappa):
        # CG solves to a tenth of the 1e-5 margin still leave lambda_min
        # inside it; at kappa = 1e4 tighter solves stall at 500 iterations
        for seed in range(3):
            Q, w, _ = random_spd(seed, n=200, kappa=kappa)
            iv = estimate_interval(Q, seed=seed)
            assert iv.method == "lanczos" and iv.matvecs > 0
            assert iv.lambda_min <= w.min() and iv.lambda_max >= w.max()
            assert iv.lambda_min == pytest.approx(w.min(), rel=2e-5)

    def test_default_rule_encloses_lattice_when_lanczos_stops_unconverged(self):
        # Gershgorin's condition number 5e4 sends g = 200 to Lanczos, whose
        # lambda_max run stops at its 200-iteration cap below lambda_max
        g, theta = 200, -0.24999
        Q = gen_gmrf_grid(g, theta)
        assert not lanczos_lambda_max(Q, tol=1e-8).converged
        lam = gmrf_spectrum(g, theta)
        iv = estimate_interval(Q)
        assert iv.method == "lanczos"
        assert iv.lambda_min <= lam.min() and iv.lambda_max >= lam.max()

    def test_default_rule_keeps_gershgorin_up_to_condition_1e4(self):
        for top, route in [(1e4, "gershgorin"), (1.5e4, "lanczos")]:
            Q = SparseMatrixCSR.from_dense(np.diag(np.geomspace(1.0, top, 50)))
            iv = estimate_interval(Q)
            assert iv.method == route and iv.lambda_max == pytest.approx(top, rel=2e-5)
            assert (iv.matvecs == 0) == (route == "gershgorin")


class TestMapParams:
    def test_simple_interval(self):
        mp = map_params(SpectralInterval(1.0, 3.0))
        assert mp.c == 2.0 and mp.gamma == 0.5
        assert not mp.degenerate

    def test_collapsed_interval(self):
        mp = map_params(SpectralInterval(1.0, 1.0))
        assert mp.c == 1.0 and mp.gamma == 0.0
        assert mp.degenerate

    def test_gmrf_interval(self):
        mp = map_params(SpectralInterval(0.12, 1.88))
        assert mp.c == pytest.approx(1.0)
        assert mp.gamma == pytest.approx(0.44)

    def test_round_trip(self):
        # reconstruction is exact at the scale of the interval width; the
        # small endpoint of a wide interval cancels down to that resolution
        for lo, hi in [(1.0, 3.0), (0.12, 1.88), (2.0, 2.0), (1e-4, 7e3)]:
            mp = map_params(SpectralInterval(lo, hi))
            assert mp.c - 2.0 * mp.gamma == pytest.approx(lo, abs=4e-16 * hi)
            assert mp.c + 2.0 * mp.gamma == pytest.approx(hi, rel=1e-15)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            SpectralInterval(0.0, 1.0)
        with pytest.raises(ValueError):
            SpectralInterval(2.0, 1.0)
        with pytest.raises(ValueError):
            MapParams(1.0, -0.5)
