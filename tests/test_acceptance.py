"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
numbers.  Two checks are known-red and kept that way deliberately; their
docstrings and printed output carry the measured evidence:

- criterion 3b: the classical divided-difference recursion, evaluated at
  the greedily-ordered nodes this library uses, does NOT lose accuracy at
  degree 30 (the ordering itself prevents the cancellation; the recursion
  only collapses at higher degrees or monotone orderings).
- criterion 6a/6b: at desk scale (n = 10^4) the required 2%-of-logdet
  accuracy sits below the estimator's intrinsic Monte Carlo noise floor at
  12 queries, and on a flat log-spectrum Hutch++ spends two thirds of its
  queries on a sketch that captures almost nothing, so its variance is ~3x
  plain Hutchinson's rather than below it.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import gmrf_spectrum, random_spd, ufl_matrix_path
from dense_oracles import dense_logdet_cholesky
from divdiff_oracles import naive_divided_differences, reference_divided_differences
from lejadet import (SparseMatrixCSR, SpectralInterval, band_logdet_cholesky,
                     estimate_interval, gen_gmrf_grid,
                     gen_pentadiagonal, generate_fast_leja, gmrf_grid_logdet_analytic,
                     gmrf_likelihood_scan, hutchpp_logdet, slq_logdet)
from lejadet.action import log_matvec
from lejadet.divdiff import divided_differences_log
from lejadet.logdet import hutchinson_logdet

LOG120 = math.log(120.0)


def report(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_exactness_suite():
    """Identity gives zero via every method; diag(1..5) is captured exactly
    by the deterministic part; dense and band Cholesky agree.  Under 5 s."""
    t0 = time.perf_counter()
    worst_identity = 0.0
    for n in (10, 10_000):
        eye = SparseMatrixCSR.from_scipy(sp.identity(n, format="csr"))
        vals = [hutchpp_logdet(eye, 6, seed=0).estimate,
                hutchinson_logdet(eye, 6, seed=0).estimate,
                slq_logdet(eye, 10, 5, seed=0).estimate,
                band_logdet_cholesky(eye, 0)]
        if n == 10:
            vals.append(dense_logdet_cholesky(eye.to_dense()))
        else:
            vals.append(gmrf_grid_logdet_analytic(100, 0.0))
        worst_identity = max(worst_identity, max(abs(v) for v in vals))

    diag5 = SparseMatrixCSR.from_dense(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
    est = hutchpp_logdet(diag5, 12, action_tol=1e-10, seed=0).estimate
    diag_err = abs(est - LOG120)

    penta = gen_pentadiagonal(500, seed=0)
    band = band_logdet_cholesky(penta, 2)
    dense = dense_logdet_cholesky(penta.to_dense())
    chol_rel = abs(band - dense) / abs(dense)

    elapsed = time.perf_counter() - t0
    ok = (worst_identity <= 1e-9 and diag_err <= 1e-6
          and chol_rel <= 1e-9 and elapsed < 5.0)
    assert report(1, "exactness suite", ok,
                  f"identity max |logdet| {worst_identity:.2e}, diag(1..5) err "
                  f"{diag_err:.2e}, dense-vs-band rel {chol_rel:.2e}, {elapsed:.1f}s")


def test_criterion_2_action_oracle_suite():
    """20 seeded SPD matrices (n <= 200, kappa <= 1e3): relative 2-norm error
    of the interpolated action vs dense eigendecomposition within 100x the
    stopping tolerance of 1e-8.  Under 30 s."""
    t0 = time.perf_counter()
    tol = 1e-8
    worst = 0.0
    for seed in range(20):
        Q, w, basis = random_spd(100 + seed)
        dd = divided_differences_log(generate_fast_leja(512),
                                     SpectralInterval(w.min(), w.max()))
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(Q.n)
        res = log_matvec(Q, v, dd, rtol=tol)
        exact = basis @ (np.log(w) * (basis.T @ v))
        rel = np.linalg.norm(res.vector - exact) / np.linalg.norm(exact)
        worst = max(worst, rel)
        assert res.converged
    elapsed = time.perf_counter() - t0
    ok = worst <= 100 * tol and elapsed < 30.0
    assert report(2, "action-oracle suite", ok,
                  f"worst rel err {worst:.2e} (cap {100 * tol:.0e}), {elapsed:.1f}s")


def dd_errors_vs_oracle(kappa, m=30):
    iv = SpectralInterval(1.0, kappa)
    xi = generate_fast_leja(m + 1)
    dd = divided_differences_log(xi, iv)
    z = iv.c + iv.gamma * xi
    ref = reference_divided_differences(z, prec_bits=300)
    scaled_ref = np.array([iv.gamma ** k * ref[k] for k in range(m + 1)])
    stable_err = np.max(np.abs(dd.coeffs - scaled_ref)
                        / np.maximum(1.0, np.abs(scaled_ref)))
    naive = naive_divided_differences(z)
    scaled_naive = np.array([iv.gamma ** k * naive[k] for k in range(m + 1)])
    naive_err = np.max(np.abs(scaled_naive - scaled_ref)
                       / np.maximum(1.0, np.abs(scaled_ref)))
    return stable_err, naive_err


def test_criterion_3a_divided_difference_stability():
    """Trapezoid-sum coefficients match the extended-precision recursion via
    the gamma^k identity to 1e-10 for degree 30 at kappa in {10, 1e2, 1e4}."""
    details = []
    worst = 0.0
    for kappa in (10.0, 100.0, 1e4):
        stable_err, _ = dd_errors_vs_oracle(kappa)
        details.append(f"kappa={kappa:g}: {stable_err:.2e}")
        worst = max(worst, stable_err)
    ok = worst <= 1e-10
    assert report("3a", "divided-difference agreement", ok, "; ".join(details))


def test_criterion_3b_naive_recursion_digit_loss():
    """Asserts the naive float64 recursion loses >= 3 digits more than the
    trapezoid-sum path at degree 30, kappa = 1e4.

    Known-red: at these nodes the greedy ordering keeps consecutive nodes
    far apart, so the classical recursion suffers no cancellation at this
    depth and is in fact the more accurate of the two (7.4e-16 vs 1.4e-14
    here; the sorted-node recursion does collapse, reaching rel errors
    above 1e-5 by degree 60, but that is a different computation).
    """
    stable_err, naive_err = dd_errors_vs_oracle(1e4)
    ok = naive_err >= 1e3 * max(stable_err, 1e-16)
    assert report("3b", "naive recursion digit loss", ok,
                  f"naive {naive_err:.2e} vs stable {stable_err:.2e} "
                  f"(needs naive >= 1000x stable)")


def test_criterion_4_optimal_scaling_property():
    """D(s) = max endpoint ratio is minimized at the interval center, where
    it equals (lambda_max - lambda_min)/(lambda_max + lambda_min) exactly.
    Under 1 s."""
    t0 = time.perf_counter()
    ok = True
    details = []
    for lo, hi in [(1.0, 3.0), (2.0, 6.0)]:
        c = (lo + hi) / 2.0
        grid = np.linspace(lo / 2.0, 2.0 * hi, 100)

        def ratio(s):
            return max(abs(lo / s - 1.0), abs(hi / s - 1.0))

        d_c = ratio(c)
        d_grid = min(ratio(s) for s in grid)
        exact = d_c == (hi - lo) / (hi + lo)
        minimal = d_c <= d_grid
        ok = ok and exact and minimal
        details.append(f"[{lo},{hi}]: D(c)={d_c} grid min {d_grid:.6f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert report(4, "optimal scaling", ok, "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_5_convergence_rate():
    """Observed geometric decay of the action error indicator on the g=50
    lattice matrix beats 1/rho + 0.1 with rho from the analytic condition
    number (median over 10 probes).  Under 30 s."""
    t0 = time.perf_counter()
    g, theta = 50, -0.22
    Q = gen_gmrf_grid(g, theta)
    lam = gmrf_spectrum(g, theta)
    kappa = lam.max() / lam.min()
    rho = (math.sqrt(kappa) + 1.0) / (math.sqrt(kappa) - 1.0)
    bound = 1.0 / rho + 0.1
    dd = divided_differences_log(generate_fast_leja(256),
                                 SpectralInterval(lam.min(), lam.max()))
    # the first 91 entries of the table: the actions stop at degree 90
    dd90 = dataclasses.replace(dd, coeffs=dd.coeffs[:91], nodes=dd.nodes[:91])
    rng = np.random.default_rng(0)
    rates = []
    for _ in range(10):
        v = rng.standard_normal(Q.n)
        res = log_matvec(Q, v, dd90, rtol=0.0)
        e = res.error_history
        floor = 1e-10 * np.linalg.norm(v)
        last = int(np.max(np.nonzero(e > floor)))
        start = 10
        span = ((last - start) // 10) * 10
        assert span >= 20, "decay window too short to measure"
        # geometric mean of the 10-step ratios over the clean window
        rates.append((e[start + span] / e[start]) ** (1.0 / span))
    med = float(np.median(rates))
    elapsed = time.perf_counter() - t0
    ok = med <= bound and elapsed < 30.0
    assert report(5, "convergence rate", ok,
                  f"median rate {med:.4f} vs bound {bound:.4f} "
                  f"(kappa {kappa:.2f}), {elapsed:.1f}s")


def test_criterion_6a_hutchpp_statistical_bound():
    """Asserts |estimate - logdet| <= 2% |logdet| in >= 18 of 20 seeds on the
    g=100 lattice at 12 queries.

    Known-red: the estimator is unbiased and its multiplicative guarantee
    holds for the trace of the normalized logarithm (~19,893 here, measured
    relative errors ~1e-3), but |logdet| itself is ~1,309 while the
    intrinsic Monte Carlo standard deviation at 12 queries is ~30, so the
    2%-of-logdet window (~26) is below one standard deviation.  No correct
    implementation of this estimator passes at this problem size; the
    paper-scale grid (n = 2.5e7) would pass easily since logdet grows like
    n and the noise like sqrt(n).  Under 5 min.
    """
    t0 = time.perf_counter()
    g = 100
    Q = gen_gmrf_grid(g, -0.22)
    exact = gmrf_grid_logdet_analytic(g, -0.22)
    hits = 0
    rels = []
    for seed in range(20):
        rep = hutchpp_logdet(Q, 12, action_tol=1e-8, seed=seed)
        rel = abs(rep.estimate - exact) / abs(exact)
        rels.append(rel)
        hits += rel <= 0.02
    elapsed = time.perf_counter() - t0
    ok = hits >= 18 and elapsed < 300.0
    assert report("6a", "statistical bound", ok,
                  f"{hits}/20 within 2% (median rel {np.median(rels):.4f}, "
                  f"|logdet| {abs(exact):.0f}), {elapsed:.0f}s")


def test_criterion_6b_variance_vs_hutchinson():
    """Asserts Hutch++ variance <= Hutchinson variance at equal queries over
    50 seeds on the g=40 lattice.

    Known-red: log(Q/sigma) of this matrix has an essentially flat spectrum,
    so the rank-4 sketch removes almost none of the Frobenius mass; Hutch++
    then averages 4 residual probes against Hutchinson's 12 and its variance
    comes out ~3x larger, exactly as the query split predicts.  The premise
    (dominant low-rank part) is exercised separately in the estimator tests.
    """
    t0 = time.perf_counter()
    Q = gen_gmrf_grid(40, -0.22)
    hpp, hut = [], []
    for seed in range(50):
        hpp.append(hutchpp_logdet(Q, 12, action_tol=1e-8, seed=seed).estimate)
        hut.append(hutchinson_logdet(Q, 12, action_tol=1e-8, seed=seed).estimate)
    var_hpp = float(np.var(hpp, ddof=1))
    var_hut = float(np.var(hut, ddof=1))
    elapsed = time.perf_counter() - t0
    ok = var_hpp <= var_hut and elapsed < 300.0
    assert report("6b", "variance comparison", ok,
                  f"var hutch++ {var_hpp:.1f} vs hutchinson {var_hut:.1f}, "
                  f"{elapsed:.0f}s")


def test_criterion_7_pentadiagonal_desk_scale():
    """n in {1e4, 1e5, 1e6}: estimator error within 1e-2 of the banded
    Cholesky reference at every size, and wall time strictly below SLQ
    (degree 40, 30 probes) at every size.  Under 10 min."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in (10_000, 100_000, 1_000_000):
        Q = gen_pentadiagonal(n, seed=7)
        ref = band_logdet_cholesky(Q, 2)

        t1 = time.perf_counter()
        bounds = estimate_interval(Q, "gershgorin")
        rep = hutchpp_logdet(Q, 12, action_tol=1e-7, seed=1, bounds=bounds)
        t_leja = time.perf_counter() - t1

        t1 = time.perf_counter()
        rep_slq = slq_logdet(Q, 40, 30, seed=1)
        t_slq = time.perf_counter() - t1

        rel = abs(rep.estimate - ref) / abs(ref)
        ok = ok and rel <= 1e-2 and t_leja < t_slq
        details.append(f"n={n:.0e}: rel {rel:.1e}, {t_leja:.2f}s vs slq {t_slq:.1f}s")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    assert report(7, "pentadiagonal scaling", ok,
                  "; ".join(details) + f", total {elapsed:.0f}s")


def test_criterion_8_gmrf_likelihood_argmax():
    """g=64 likelihood scan recovers theta_true = -0.22 within one grid step
    in at least 3 of 5 seeds.  The stated grid start of -0.26 violates the
    positive-definiteness condition |theta| < 1/4 (1 - 4*0.26 < 0), so the
    scan covers its feasible part [-0.24, -0.14].  Under 5 min."""
    t0 = time.perf_counter()
    thetas = [round(-0.24 + 0.01 * i, 4) for i in range(11)]
    hits = 0
    argmaxes = []
    for seed in range(5):
        out = gmrf_likelihood_scan(64, -0.22, thetas, seed=seed, m_vec=12,
                                   tol=1e-7)
        lls = [row["loglik"] for row in out["rows"]]
        am = thetas[int(np.argmax(lls))]
        argmaxes.append(am)
        hits += abs(am - (-0.22)) <= 0.0101
    elapsed = time.perf_counter() - t0
    ok = hits >= 3 and elapsed < 300.0
    assert report(8, "likelihood argmax", ok,
                  f"{hits}/5 within one step (argmaxes {argmaxes}), {elapsed:.0f}s")


CRYSTM02_EXACT = -406912.286


@pytest.mark.skipif(ufl_matrix_path("crystm02.mtx") is None,
                    reason="crystm02.mtx not present (manual download; see README)")
def test_criterion_9_ufl_crystm02():
    """Optional suite against the crystm02 test matrix (manual download)."""
    from lejadet import load_matrix_market
    Q = load_matrix_market(ufl_matrix_path("crystm02.mtx"))
    bounds = estimate_interval(Q, "gershgorin")
    rep = hutchpp_logdet(Q, 9, action_tol=1e-7, seed=0, bounds=bounds)
    rel = abs(rep.estimate - CRYSTM02_EXACT) / abs(CRYSTM02_EXACT)
    rep_slq = slq_logdet(Q, 20, 30, seed=0)
    rel_slq = abs(rep_slq.estimate - CRYSTM02_EXACT) / abs(CRYSTM02_EXACT)
    ok = rel <= 1e-4 and rel_slq <= 1e-4
    assert report(9, "crystm02", ok,
                  f"hutch++ rel {rel:.2e} (degrees {rep.degrees}), "
                  f"slq rel {rel_slq:.2e}")
