import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import POWERS_OF_TWO, gmrf_spectrum, random_spd, scaled
from lejadet import sparse, spectral
from lejadet import (ConvergenceError, SparseMatrixCSR, SpectralInterval,
                     estimate_interval, gen_gmrf_grid, gen_pentadiagonal,
                     generate_fast_leja, lanczos_lambda_max, shift_invert_lambda_min)
from lejadet.spectral import gershgorin_bounds


def _chain(n, empty=False, missing_diagonal=False):
    """Symmetric chain matrix of order n with random couplings, whose largest
    diagonal entry is on its last row; ``empty`` clears every 1000th row and
    column, ``missing_diagonal`` drops every 700th diagonal entry (their rows
    keep their couplings)."""
    rng = np.random.default_rng(n)
    off = rng.uniform(-1.0, 1.0, n - 1)
    diag = 4.0 + rng.random(n)
    diag[-1] = 6.0
    a = sp.diags([off, diag, off], [-1, 0, 1], format="lil")
    if empty:
        for i in range(0, n, 1000):
            a[i, :] = 0.0
            a[:, i] = 0.0
    if missing_diagonal:
        for i in range(3, n, 700):
            a[i, i] = 0.0
    a = a.tocsr()
    a.eliminate_zeros()
    Q = SparseMatrixCSR.from_scipy(a)
    assert (np.diff(Q.row_ptr) == 0).any() == empty
    return Q


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

    def test_refuses_a_non_positive_upper_bound(self):
        with pytest.raises(ValueError, match="Gershgorin upper bound is not positive"):
            gershgorin_bounds(SparseMatrixCSR.from_dense(-np.eye(3)))

    def test_requires_symmetry(self):
        # every stage assumes symmetry, so such a matrix never reaches Gershgorin
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            SparseMatrixCSR.from_dense(np.array([[1.0, 1.0], [0.0, 1.0]]))

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
        rows = sparse._MIN_BLOCK_ROWS
        for Q in (gen_pentadiagonal(10_000, seed=1), random_spd(3, n=120)[0],
                  # several blocks, the last one partial and holding the top
                  gen_pentadiagonal(3 * rows + 1234, seed=2), _chain(3 * rows + 1234),
                  _chain(2 * rows + 77, empty=True),
                  _chain(rows + 5, missing_diagonal=True),
                  # n / _BLOCKS rows a block, more than the minimum
                  _chain(sparse._BLOCKS * rows + 777)):
            row = np.repeat(np.arange(Q.n), np.diff(Q.row_ptr))
            diag = Q.to_scipy().diagonal()
            radius = (np.bincount(row, weights=np.abs(Q.values), minlength=Q.n)
                      - np.abs(diag))
            iv = gershgorin_bounds(Q)
            assert iv.lambda_max == np.max(diag + radius)
            assert iv.lambda_min == max(1e-8 * iv.lambda_max, np.min(diag - radius))

    @pytest.mark.parametrize("dense,message", [
        (-np.eye(3), "Gershgorin upper bound is not positive"),
        # the row sums overflow to inf: no finite enclosure
        ([[1e308, 1e308], [1e308, 1e308]], "need finite 0 < lambda_min"),
    ])
    def test_construction_takes_extremes_quietly_and_bounds_refuse(self, dense,
                                                                   message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Q = SparseMatrixCSR.from_dense(dense)
            with pytest.raises(ValueError, match=message):
                gershgorin_bounds(Q)

    def test_extremes_are_held_unfloored(self):
        Q = SparseMatrixCSR.from_dense(np.array([[1.0, -2.0], [-2.0, 1.0]]))
        assert Q.gershgorin == (-1.0, 3.0)
        with pytest.raises(AttributeError):
            Q.gershgorin = (1.0, 3.0)


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

    @pytest.mark.parametrize("max_iter", [200, 1])
    @pytest.mark.parametrize("estimator", [lanczos_lambda_max, shift_invert_lambda_min],
                             ids=["lambda-max", "shift-invert"])
    def test_identity_breakdown_ends_converged(self, estimator, max_iter):
        # a breakdown on the last allowed step still ends the run converged
        Q = SparseMatrixCSR.from_dense(np.eye(6))
        est = estimator(Q, max_iter=max_iter, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert (est.iterations, est.converged, est.breakdown) == (1, True, True)

    @pytest.mark.parametrize("estimator", [lanczos_lambda_max, shift_invert_lambda_min],
                             ids=["lambda-max", "shift-invert"])
    def test_no_step_refused(self, estimator):
        with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
            estimator(gen_pentadiagonal(100, seed=0), max_iter=0)

    def test_gmrf_grid_matches_analytic(self):
        Q = gen_gmrf_grid(50, -0.22)
        lam = gmrf_spectrum(50, -0.22)
        est = lanczos_lambda_max(Q, tol=1e-12, max_iter=400, seed=1)
        assert est.value == pytest.approx(lam.max(), abs=1e-6)

    def test_lambda_min_known_diagonal(self):
        Q = SparseMatrixCSR.from_dense(np.diag(np.arange(1.0, 11.0)))
        est = shift_invert_lambda_min(Q, tol=1e-9, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_lambda_min_identity(self):
        Q = SparseMatrixCSR.from_dense(np.eye(5))
        est = shift_invert_lambda_min(Q, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-10)
        assert est.matvecs == est.iterations      # one CG iteration per solve

    def test_lambda_min_tridiag(self):
        Q = SparseMatrixCSR.from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        est = shift_invert_lambda_min(Q, tol=1e-10, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("diag", [[1.0, 0.0], [1.0] * 50 + [0.0]],
                             ids=["2x2", "51x51"])
    def test_singular_matrix_refused_without_overflow(self, diag):
        # on the 51 x 51 matrix p'Ap falls to rounding level and the CG
        # step would overflow; on the 2 x 2 one p'Ap is exactly 0
        Q = SparseMatrixCSR.from_dense(np.diag(diag))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix is not positive definite"):
                shift_invert_lambda_min(Q, seed=0)

    def test_cg_failure_carries_residual(self):
        # at kappa 1e12 CG stops at its cap of 500 iterations
        Q, _, _ = random_spd(0, n=300, kappa=1e12)
        with pytest.raises(ConvergenceError) as exc:
            shift_invert_lambda_min(Q, tol=1e-10, seed=0)
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

    def test_ceiling_stops_the_run_unconverged(self):
        Q = SparseMatrixCSR.from_dense(np.diag(np.arange(1.0, 11.0)))
        m = Q.to_scipy()

        def run(**kwargs):
            return spectral._lanczos_extreme(lambda x: m @ x, Q.n,
                                             np.random.default_rng(0), 1e-12, 50, **kwargs)

        full, capped = run(), run(ceiling=9.0)
        assert full.converged and not capped.converged
        assert 9.0 <= capped.value <= 10.0 and capped.matvecs < full.matvecs

    @pytest.mark.parametrize("g,theta,route",
                             [(200, -0.24999, None), (128, -0.14, "lanczos")])
    def test_default_rule_encloses_lattice_when_lanczos_stops_unconverged(
            self, g, theta, route, monkeypatch):
        # Gershgorin's condition number 5e4 sends g = 200 to Lanczos; on both
        # lattices the lambda_max run would stop at its 200-iteration cap below
        # lambda_max, and estimate_interval stops it once it comes within 1e-3
        # of Gershgorin's bound, which it keeps
        Q = gen_gmrf_grid(g, theta)
        assert not lanczos_lambda_max(Q, tol=1e-8).converged
        lam = gmrf_spectrum(g, theta)
        lows = []
        shift_invert = spectral.shift_invert_lambda_min

        def spy(*args, **kwargs):
            lows.append(shift_invert(*args, **kwargs))
            return lows[-1]

        monkeypatch.setattr(spectral, "shift_invert_lambda_min", spy)
        iv = estimate_interval(Q, route)
        assert iv.method == "lanczos"
        assert iv.lambda_min <= lam.min() and iv.lambda_max >= lam.max()
        assert iv.lambda_max == gershgorin_bounds(Q).lambda_max
        assert iv.matvecs - lows[0].matvecs <= 50        # the lambda_max run's share

    @pytest.mark.parametrize("c", POWERS_OF_TWO, ids=lambda c: f"2^{math.log2(c):.0f}")
    @pytest.mark.parametrize("make", [lambda: gen_gmrf_grid(40, -0.24),
                                      lambda: random_spd(0, n=200, kappa=1e3)[0]],
                             ids=["lattice-40", "spd-0"])
    def test_lanczos_route_is_scale_free(self, make, c):
        # the breakdown rule and the stop rules are relative: scaling Q by a
        # power of two changes no step of either run (measured drift of the
        # ends: 0)
        Q = make()
        iv, ivc = estimate_interval(Q, "lanczos"), estimate_interval(scaled(Q, c), "lanczos")
        assert ivc.matvecs == iv.matvecs
        assert ivc.lambda_min == pytest.approx(c * iv.lambda_min, rel=1e-15)
        assert ivc.lambda_max == pytest.approx(c * iv.lambda_max, rel=1e-15)

    def test_unknown_route_refused(self):
        with pytest.raises(ValueError, match="unknown bounds method 'cg'"):
            estimate_interval(SparseMatrixCSR.from_dense(np.eye(3)), "cg")

    def test_default_rule_keeps_gershgorin_up_to_condition_1e4(self):
        for top, route in [(1e4, "gershgorin"), (1.5e4, "lanczos")]:
            Q = SparseMatrixCSR.from_dense(np.diag(np.geomspace(1.0, top, 50)))
            iv = estimate_interval(Q)
            assert iv.method == route and iv.lambda_max == pytest.approx(top, rel=2e-5)
            assert (iv.matvecs == 0) == (route == "gershgorin")


class TestMapParams:
    """The interval's c and gamma: the map z = c + gamma * xi from [-2, 2]."""

    def test_simple_interval(self):
        iv = SpectralInterval(1.0, 3.0)
        assert iv.c == 2.0 and iv.gamma == 0.5

    def test_collapsed_interval(self):
        iv = SpectralInterval(1.0, 1.0)
        assert iv.c == 1.0 and iv.gamma == 0.0

    def test_gmrf_interval(self):
        iv = SpectralInterval(0.12, 1.88)
        assert iv.c == pytest.approx(1.0)
        assert iv.gamma == pytest.approx(0.44)

    ROUND_TRIP = [(1.0, 3.0), (0.12, 1.88), (2.0, 2.0), (1e-4, 7e3)]

    def test_round_trip(self):
        # reconstruction is exact at the scale of the interval width; the
        # small endpoint of a wide interval cancels down to that resolution
        for lo, hi in self.ROUND_TRIP:
            iv = SpectralInterval(lo, hi)
            assert iv.c - 2.0 * iv.gamma == pytest.approx(lo, abs=4e-16 * hi)
            assert iv.c + 2.0 * iv.gamma == pytest.approx(hi, rel=1e-15)

    def test_pinned_values(self):
        # (lo + hi) / 2 and (hi - lo) / 4, bitwise as the map had them when it
        # was a separate object
        expected = [(2.0, 0.5), (1.0, 0.43999999999999995), (2.0, 0.0),
                    (3500.00005, 1749.999975)]
        for (lo, hi), (c, gamma) in zip(self.ROUND_TRIP, expected):
            iv = SpectralInterval(lo, hi)
            assert (iv.c, iv.gamma) == (c, gamma)

    def test_nodes_stay_inside_interval(self):
        xi = generate_fast_leja(200)
        for lo, hi in [(1.0, 3.0), (0.12, 1.88), (44.4, 58.0), (1e-3, 1e4)]:
            interval = SpectralInterval(lo, hi)
            nodes = interval.c + interval.gamma * xi
            pad = 1e-12 * hi
            assert nodes.min() >= lo - pad and nodes.max() <= hi + pad

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            SpectralInterval(0.0, 1.0)
        with pytest.raises(ValueError):
            SpectralInterval(2.0, 1.0)
        with pytest.raises(ValueError):     # c = (lo + hi) / 2 would overflow
            SpectralInterval(1e308, 1.7e308)
