import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, ddot, dgemv

from conftest import POWERS_OF_TWO, gmrf_spectrum, indefinite_matrix, random_spd, scaled
from lejadet import logdet, quadrature
from lejadet.action import log_matvec
from lejadet.divdiff import divided_differences_log
from lejadet.logdet import hutchinson_logdet
from lejadet import (METHODS, ConvergenceError, SparseMatrixCSR, SpectralInterval,
                     band_logdet_cholesky, estimate,
                     estimate_interval, gen_gmrf_grid, gen_pentadiagonal,
                     gmrf_grid_logdet_analytic, hutchpp_logdet, slq_logdet)

LOG120 = math.log(120.0)
SQRT_EPS = math.sqrt(np.finfo(np.float64).eps)

# (matrix, Lanczos degree) pairs on which plain SLQ is checked against full
# reorthogonalization: the pentadiagonal and lattice matrices, where the
# Lanczos vectors stay orthogonal to sqrt(eps), and random_spd seeds 0-19
# with kappa in {1e2, 1e3, 1e4} and m_l in {40, 80}, where they lose
# orthogonality
SLQ_CASES = [(lambda: gen_pentadiagonal(10_000, seed=0), 40),
             (lambda: gen_gmrf_grid(40, -0.24), 40)]
SLQ_IDS = ["penta-1e4", "lattice-40"]
for _kappa in (1e3, 1e2, 1e4):
    for _m_l in (40, 80):
        for _seed in range(20):
            SLQ_CASES.append((lambda s=_seed, k=_kappa: random_spd(s, n=200, kappa=k)[0],
                              _m_l))
            SLQ_IDS.append(f"spd-{_seed}" if (_kappa, _m_l) == (1e3, 40)
                           else f"spd-{_seed}-kappa{_kappa:.0e}-m{_m_l}")
# the same with penta-slq's matrix, on which every probe stops at 2 steps
SLQ_CASES_1E5 = SLQ_CASES + [(lambda: gen_pentadiagonal(100_000, seed=0), 40)]
SLQ_IDS_1E5 = SLQ_IDS + ["penta-1e5"]


def identity_matrix(n):
    return SparseMatrixCSR.from_scipy(sp.identity(n, format="csr"))


def barely_positive_spd():
    """random_spd(0, n=200, kappa=100) shifted until its Gershgorin lower
    bound is 1e-6 of the upper one: above the floor, at condition 1e6."""
    dense = random_spd(0, n=200, kappa=100.0)[0].to_scipy().toarray()
    radius = np.abs(dense).sum(axis=1) - np.abs(np.diag(dense))
    lo, hi = np.min(np.diag(dense) - radius), np.max(np.diag(dense) + radius)
    shift = (1e-6 * hi - lo) / (1.0 - 1e-6)
    return SparseMatrixCSR.from_scipy(dense + shift * np.eye(200))


# (matrix, the enclosure the default rule takes, seed, warnings of 12 actions
# of tolerance 1e-12 capped at degree 5): Gershgorin on the generators and
# the identity, Lanczos on random_spd matrices whose Gershgorin condition
# number is 1e8 (floored) or 1e6; the pentadiagonal (kappa near 1) and the
# identity (a degenerate map) converge under the cap, and so do the barely
# positive matrix's forms, whose Gauss-Radau brackets close within 5
# products on Lanczos's interval of condition 1.28 (the tail rule left 8 of
# them just above the tolerance)
ROUTE_CASES = [(lambda: gen_gmrf_grid(20, -0.22), "gershgorin", s, 12) for s in range(3)]
ROUTE_CASES += [(lambda: gen_pentadiagonal(10_000, seed=0), "gershgorin", 0, 0),
                (lambda: gen_gmrf_grid(40, -0.24), "gershgorin", 0, 12),
                (lambda: identity_matrix(50), "gershgorin", 0, 0),
                (lambda: random_spd(0, n=200, kappa=100.0)[0], "lanczos", 0, 12),
                (barely_positive_spd, "lanczos", 0, 0)]
ROUTE_IDS = ["lattice-20-seed0", "lattice-20-seed1", "lattice-20-seed2", "penta-1e4",
             "lattice-40", "identity", "spd-floored", "spd-barely-positive"]


class TestNormalization:
    @pytest.mark.parametrize("lo,hi", [(0.12, 1.88), (2.0, 5.0), (0.5, 0.8), (1.0, 4.0)],
                             ids=["scaled", "unscaled", "below-one", "lambda-min-one"])
    @pytest.mark.parametrize("est", [hutchpp_logdet, hutchinson_logdet])
    def test_sigma_is_lambda_min(self, est, lo, hi):
        # a diagonal with its spectrum spread over the given interval; sigma
        # is its lower end on either side of one
        Q = SparseMatrixCSR.from_scipy(np.diag(np.linspace(lo, hi, 6)))
        rep = est(Q, 12, seed=0, bounds=SpectralInterval(lo, hi))
        assert rep.converged
        assert rep.sigma == lo
        assert rep.n_log_sigma == Q.n * math.log(rep.sigma)

    def test_normalization_algebra(self):
        """n log(sigma) + tr log(Q/sigma) equals tr log Q, checked by dense
        eigendecomposition, independent of any estimator."""
        rng = np.random.default_rng(8)
        basis, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        eig = np.geomspace(0.3, 6.0, 40)
        dense = (basis * eig) @ basis.T
        w = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        sigma = w.min()
        lhs = 40 * math.log(sigma) + np.sum(np.log(w / sigma))
        rhs = np.sum(np.log(w))
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


class TestReportContract:
    def test_estimate_identity(self):
        Q = gen_gmrf_grid(15, -0.2)
        for rep in (hutchpp_logdet(Q, 9, seed=1),
                    hutchinson_logdet(Q, 5, seed=1),
                    slq_logdet(Q, 12, 4, seed=1)):
            assert rep.estimate == rep.n_log_sigma + rep.trace_estimate

    def test_determinism_sequential(self):
        Q = gen_gmrf_grid(12, -0.22)
        a = hutchpp_logdet(Q, 12, seed=7)
        b = hutchpp_logdet(Q, 12, seed=7)
        assert a.estimate == b.estimate
        assert a.seed == 7

    def test_degree_cap_warnings_in_task_order(self):
        # degree cap hit on every action: the warnings list has one line per
        # action, in task order
        Q = gen_gmrf_grid(12, -0.22)
        hutchpp_tasks = [f"{phase} action {j}" for phase in
                         ("sketch", "deterministic", "residual") for j in range(4)]
        for est, tasks in ((hutchpp_logdet, hutchpp_tasks),
                           (hutchinson_logdet, [f"probe action {j}" for j in range(12)])):
            rep = est(Q, 12, seed=3, action_tol=1e-12, max_degree=5)
            assert len(rep.warnings) == 12
            assert [w.split(":")[0] for w in rep.warnings] == tasks

    def test_degree_statistics_present(self):
        Q = gen_gmrf_grid(12, -0.22)
        rep = hutchpp_logdet(Q, 9, seed=0)
        d = rep.degrees
        assert d["min"] <= d["median"] <= d["max"]
        assert rep.matvecs_total > 0
        assert rep.wall_time > 0

    def test_warnings_on_degree_cap(self):
        Q = gen_gmrf_grid(12, -0.22)
        rep = hutchpp_logdet(Q, 9, seed=0, action_tol=1e-12, max_degree=3)
        assert rep.warnings and not rep.converged

    def test_round_trip_dict(self):
        from lejadet import LogDetReport
        rep = hutchpp_logdet(gen_gmrf_grid(8, -0.2), 6, seed=2)
        again = LogDetReport(**rep.to_dict())
        assert again == rep
        # a report written before the error bound existed still loads
        old = rep.to_dict()
        del old["error_bound"]
        assert rep.error_bound is None and LogDetReport(**old) == rep

    @pytest.mark.parametrize("method,make,exact_trace",
                             [(m, lambda: gen_gmrf_grid(10, -0.22), False)
                              for m in logdet.METHODS]
                             + [("hutchinson", lambda: gen_pentadiagonal(10_000, seed=0),
                                 True)],
                             ids=list(logdet.METHODS) + ["exact-trace"])
    def test_numbers_are_python_floats(self, method, make, exact_trace):
        # a numpy scalar compares to numpy.bool_, which json refuses
        rep = estimate(make(), method)
        assert (rep.error_bound is not None) == exact_trace
        assert type(rep.estimate) is float and type(rep.trace_estimate) is float
        json.dumps({"negative": rep.estimate < 0.0,
                    "within": rep.trace_estimate <= rep.estimate + 1.0})


def _dense_log(Q, sigma):
    """log(Q / sigma) of a small matrix, from its eigendecomposition."""
    eig, vecs = np.linalg.eigh(Q.to_scipy().toarray())
    return (vecs * np.log(eig / sigma)) @ vecs.T


def _probes(rng, n, cols):
    return rng.integers(0, 2, size=(n, cols)) * 2.0 - 1.0


def _sketch_image(eng, S, tol):
    """log(Q/sigma) S column by column: the engine's Leja actions of relative
    tolerance ``tol``."""
    images = [log_matvec(eng.Q, s, eng.dd, rtol=tol).vector for s in S.T]
    return np.column_stack(images)


def _std_error(terms):
    return np.std(terms, ddof=1) / math.sqrt(len(terms))


class TestStdError:
    """std_error is the probe terms' sample deviation over sqrt(m)."""

    def test_hutchinson_probes(self):
        Q = gen_gmrf_grid(8, -0.22)
        rep = hutchinson_logdet(Q, 10, seed=4)
        G = _probes(np.random.default_rng(4), Q.n, 10)
        terms = np.einsum("ij,ij->j", G, _dense_log(Q, rep.sigma) @ G)
        assert rep.std_error == pytest.approx(_std_error(terms), rel=1e-5)

    def test_hutchpp_residual_probes(self):
        Q = gen_gmrf_grid(8, -0.22)
        rep = hutchpp_logdet(Q, 15, seed=5)             # k = 5 sketch, 5 residual
        L = _dense_log(Q, rep.sigma)
        rng = np.random.default_rng(5)
        # the basis of the sketch as the estimator forms it, at sqrt(tol)
        eng = logdet._ActionEngine(Q, None, 400, 5, 1e-7)
        basis, _ = np.linalg.qr(_sketch_image(eng, _probes(rng, Q.n, 5), math.sqrt(1e-7)))
        G = _probes(rng, Q.n, 5)
        U = G - basis @ (basis.T @ G)
        terms = np.einsum("ij,ij->j", U, L @ U)
        assert rep.std_error == pytest.approx(_std_error(terms), rel=1e-5)

    def test_slq_probes(self):
        Q = gen_gmrf_grid(10, -0.2)
        rep = slq_logdet(Q, 20, 6, seed=6)
        G = _probes(np.random.default_rng(6), Q.n, 6)
        terms = [logdet._lanczos_quadrature(Q.to_scipy(), G[:, j], 20, Q.gershgorin[0])[0]
                 for j in range(6)]
        assert rep.std_error == pytest.approx(_std_error(terms), rel=1e-12)

    def test_none_without_a_spread(self):
        Q = gen_gmrf_grid(8, -0.22)
        reports = [hutchinson_logdet(Q, 1, seed=0), hutchpp_logdet(Q, 3, seed=0),
                   slq_logdet(Q, 10, 1, seed=0)]
        reports += [estimate(Q, m) for m in ("exact-band", "exact-analytic")]
        assert [r.std_error for r in reports] == [None] * 5
        assert hutchpp_logdet(Q, 4, seed=0).std_error is not None   # 2 residual


class TestEstimate:
    @pytest.mark.parametrize("make,route,seed,capped", ROUTE_CASES, ids=ROUTE_IDS)
    def test_matches_direct_strategy_calls(self, make, route, seed, capped):
        Q = make()
        bounds = estimate_interval(Q, seed=seed)               # the default rule's pick
        assert bounds.method == route and estimate_interval(Q, route, seed=seed) == bounds
        assert (bounds.matvecs > 0) == (route == "lanczos")

        def key(r, given_matvecs=0):
            return (r.method, r.estimate, str(r.degrees), r.matvecs_total + given_matvecs,
                    str(r.warnings), r.sigma, r.enclosure)

        # estimate(), the estimator enclosing on its own, and the estimator
        # given the rule's interval agree bit for bit, warnings included; a
        # given interval's products with Q are not counted again
        triples = [
            (estimate(Q, "leja-hutchpp", seed=seed), hutchpp_logdet(Q, 12, seed=seed),
             hutchpp_logdet(Q, 12, seed=seed, bounds=bounds)),
            (estimate(Q, "hutchinson", seed=seed, tol=1e-12, max_degree=5),
             hutchinson_logdet(Q, 12, action_tol=1e-12, seed=seed, max_degree=5),
             hutchinson_logdet(Q, 12, action_tol=1e-12, seed=seed, bounds=bounds,
                               max_degree=5)),
        ]
        for via, alone, given in triples:
            assert key(via) == key(alone) == key(given, bounds.matvecs)
            assert via.enclosure == route
        assert len(triples[1][0].warnings) == capped
        via, direct = estimate(Q, "slq", seed=seed), slq_logdet(Q, 40, 30, seed=seed)
        assert key(via) == key(direct) and via.enclosure is None

    @pytest.mark.parametrize("kappa", [1e2, 1e3, 1e4, 1e5])
    def test_default_enclosure_converges_or_refuses(self, kappa):
        # never an answer behind a degree-cap warning: up to kappa = 1e4 every
        # matrix converges on the Lanczos enclosure (at kappa = 100 well below
        # the cap of 400); beyond it an estimate may be refused instead
        for seed in range(5):
            Q = random_spd(seed, n=200, kappa=kappa)[0]
            try:
                rep = estimate(Q, "leja-hutchpp", seed=seed)
            except (ValueError, ConvergenceError):
                assert kappa > 1e4
                continue
            assert rep.converged and not rep.warnings and rep.enclosure == "lanczos"
            if kappa == 1e2:
                assert rep.degrees["max"] <= 100

    @pytest.mark.parametrize("method", ["leja-hutchpp", "hutchinson"])
    def test_refuses_indefinite_matrix(self, method):
        with pytest.raises(ValueError, match="not positive definite"):
            estimate(indefinite_matrix(0), method)

    def test_exact_methods_return_oracle_values(self):
        Q = gen_gmrf_grid(12, -0.2)
        oracles = {"exact-band": band_logdet_cholesky(Q, Q.bandwidth()),
                   "exact-analytic": gmrf_grid_logdet_analytic(12, -0.2)}
        for method, value in oracles.items():
            rep = estimate(Q, method, seed=4)
            assert (rep.method, rep.estimate, rep.trace_estimate, rep.seed) == \
                (method, value, value, 4)
            assert rep.matvecs_total == 0 and rep.converged and not rep.warnings
            assert rep.enclosure is None

    @pytest.mark.parametrize("seed", [-1, -3, 1.5, np.float64(2.0), "1", None, True])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("make", [lambda: gen_pentadiagonal(10_000, seed=0),
                                      lambda: gen_gmrf_grid(8, -0.2)],
                             ids=["penta-1e4", "lattice-8"])
    def test_refuses_a_seed_that_is_not_a_non_negative_integer(self, make, method, seed):
        # whether the method would draw anything on this matrix or not
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be a non-negative integer, got {seed!r}")):
            estimate(make(), method, seed=seed)

    @pytest.mark.parametrize("method", ["leja-hutchpp", "hutchinson", "slq"])
    def test_numpy_integer_seed_accepted(self, method):
        Q = gen_gmrf_grid(8, -0.2)
        report = estimate(Q, method, seed=np.int64(3))
        assert report.estimate == estimate(Q, method, seed=3).estimate
        # the report holds Python ints, so it serializes with json
        assert type(report.seed) is int and type(report.queries) is int
        json.dumps(report.to_dict())

    def test_rejects_unknown_method_and_analytic_without_lattice(self):
        Q = gen_gmrf_grid(6, -0.2)
        with pytest.raises(ValueError, match="unknown method"):
            estimate(Q, "cg")
        # 36 = 6^2 rows, but not the lattice gen_gmrf_grid(6, theta)
        with pytest.raises(ValueError, match="exact-analytic"):
            estimate(gen_pentadiagonal(36, seed=0), "exact-analytic")


class TestHutchPP:
    def test_identity_exact_zero(self):
        for n in (10, 400):
            rep = hutchpp_logdet(identity_matrix(n), 6, seed=0)
            assert rep.estimate == 0.0

    def test_full_rank_sketch_captures_the_trace(self):
        # eigenvalues 2 e^u for u and -u in pairs, so log det = 100 log 2, on an
        # interval too wide for an exact low-degree trace; with k = n the
        # sketch basis spans everything, the residual vanishes, and the
        # estimate is exact
        Q = SparseMatrixCSR.from_scipy(np.diag(2.0 * np.exp(np.linspace(-0.5, 0.5, 100))))
        rep = hutchpp_logdet(Q, 300, seed=0, action_tol=1e-10)
        assert rep.queries == 300 and rep.error_bound is None
        assert rep.estimate == pytest.approx(100 * math.log(2.0), abs=1e-6)

    def test_rank_deficient_log_captured_deterministically(self):
        # log has rank 4 on diag(1..5); k >= 4 captures the trace exactly
        Q = SparseMatrixCSR.from_scipy(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
        rep = hutchpp_logdet(Q, 12, seed=0, action_tol=1e-10)
        assert rep.estimate == pytest.approx(LOG120, abs=1e-6)

    def test_needs_three_queries(self):
        with pytest.raises(ValueError, match="3"):
            hutchpp_logdet(identity_matrix(4), 2)

    def test_counts_the_forms_by_how_they_stopped(self):
        # the lattice's 8 forms close their brackets; on a log-uniform
        # spectrum every form's moments break down and the tail rule stops it
        rep = hutchpp_logdet(gen_gmrf_grid(40, -0.24), 12, seed=0)
        assert (rep.bracket_stops, rep.tail_fallbacks) == (8, 0)
        Q, w, _ = random_spd(1, n=300, kappa=1e3)
        rep = hutchinson_logdet(Q, 6, seed=0, bounds=SpectralInterval(w.min(), w.max()))
        assert (rep.bracket_stops, rep.tail_fallbacks) == (0, 6)
        # at the products the tail rule took before there was a bracket
        assert rep.degrees == {"min": 95, "median": 95.0, "max": 98}
        for method in ("slq", "exact-band"):
            rep = estimate(Q, method)
            assert (rep.bracket_stops, rep.tail_fallbacks) == (0, 0)

    def test_refuses_an_interval_the_moments_prove_no_enclosure(self):
        # twice lambda_min as the lower end: the exact Hutch++ estimate was
        # returned 6.75% off with converged True and no warning
        g, theta = 40, -0.24
        lam = gmrf_spectrum(g, theta)
        with pytest.raises(ValueError, match=re.escape(
                f"below the interval [{2.0 * lam.min():.6g}, {lam.max():.6g}]: it does "
                f"not enclose the spectrum")):
            hutchpp_logdet(gen_gmrf_grid(g, theta), 12, seed=0,
                           bounds=SpectralInterval(2.0 * lam.min(), lam.max()))

    def test_gmrf_unbiased_over_seeds(self):
        Q = gen_gmrf_grid(20, -0.22)
        exact = gmrf_grid_logdet_analytic(20, -0.22)
        ests = [hutchpp_logdet(Q, 12, seed=s).estimate for s in range(30)]
        assert np.mean(ests) == pytest.approx(exact, abs=3.0)

    def test_variance_reduction_when_log_is_low_rank_dominated(self):
        """On a spectrum whose log is dominated by a few large eigenvalues
        the sketch captures most of the mass and Hutch++ beats plain
        Hutchinson at equal query count."""
        rng = np.random.default_rng(0)
        n = 120
        eig = np.full(n, 1.05)
        eig[:4] = [400.0, 250.0, 150.0, 90.0]
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        dense = (basis * eig) @ basis.T
        Q = SparseMatrixCSR.from_scipy(0.5 * (dense + dense.T))
        bounds = SpectralInterval(1.0, 410.0)
        hpp = [hutchpp_logdet(Q, 12, seed=s, bounds=bounds).estimate
               for s in range(20)]
        hut = [hutchinson_logdet(Q, 12, seed=s, bounds=bounds).estimate
               for s in range(20)]
        assert np.var(hpp, ddof=1) <= np.var(hut, ddof=1)


def _recorded_engines(monkeypatch):
    """Every ``_ActionEngine`` the estimators build from now on, in order."""
    engines = []

    class Recording(logdet._ActionEngine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(logdet, "_ActionEngine", Recording)
    return engines


def _hutchpp_full_tol_sketch(Q, m_vec, seed, tol=1e-7):
    """Hutch++ with the sketch actions run to ``tol``, on the estimator's probe
    draws; its forms take the estimator's shares of the budget n * tol."""
    eng = logdet._ActionEngine(Q, None, 400, seed, tol)
    rng = np.random.default_rng(seed)
    k = m_vec // 3
    basis, r = np.linalg.qr(_sketch_image(eng, _probes(rng, Q.n, k), tol))
    assert np.abs(np.diag(r)).min() >= 1e-12 * np.abs(np.diag(r)).max()  # full rank
    m = m_vec - 2 * k
    det_term = sum(eng.act_all("deterministic", lambda j: basis[:, j].copy(), k, tol,
                               share=Q.n / (k + m)))
    G = _probes(rng, Q.n, m)
    U = G - basis @ (basis.T @ G)
    res_term = np.mean(eng.act_all("residual", lambda j: U[:, j].copy(), m, tol,
                                   share=Q.n * m / (k + m)))
    return Q.n * eng.log_sigma + det_term + res_term


def _recorded_rtols(monkeypatch):
    """(rtol, ||v||^2, form) of every ``log_matvec`` call from now on, in order."""
    calls = []

    def recording(Q, v, dd, rtol, **kwargs):
        calls.append((rtol, ddot(v, v), kwargs.get("form", False)))
        return log_matvec(Q, v, dd, rtol, **kwargs)

    monkeypatch.setattr(logdet, "log_matvec", recording)
    return calls


class TestHutchPPSketchTolerance:
    """The sketch actions run to sqrt(tol); the forms share the budget n * tol."""

    def test_sketch_reaches_a_lower_degree(self, monkeypatch):
        # than the same vector actions at the full tolerance; the forms are
        # not comparable, since they stop on their bracket in fewer products
        engines = _recorded_engines(monkeypatch)
        Q = gen_gmrf_grid(40, -0.22)
        rep = hutchpp_logdet(Q, 12, seed=0)
        (eng,) = engines
        degrees = {}
        for r in eng.records:
            degrees.setdefault(r.label.split()[0], []).append(r.degree)
        assert set(degrees) == {"sketch", "deterministic", "residual"}
        sketch = logdet._rademacher(np.random.default_rng(0), Q.n, 4)
        full = [log_matvec(Q, logdet._column(sketch, j), eng.dd, 1e-7).degree_used
                for j in range(4)]
        assert all(s < f for s, f in zip(degrees["sketch"], full))
        assert rep.degrees["min"] == min(r.degree for r in eng.records)
        assert rep.converged and not rep.warnings
        assert rep.matvecs_total == sum(r.degree for r in eng.records)

    # at the default 1e-7 the enclosure of penta-1e4 certifies a degree-2
    # trace and no sketch runs; at 1e-10 it certifies none
    @pytest.mark.parametrize("make,tol", [(lambda: gen_gmrf_grid(40, -0.22), 1e-7),
                                          (lambda: gen_pentadiagonal(10_000, seed=0),
                                           1e-10)],
                             ids=["lattice-40", "penta-1e4"])
    def test_matches_a_full_tolerance_sketch(self, make, tol):
        # the basis error enters at second order: over 20 seeds each estimate
        # moves by far less than the seed-to-seed spread, and so does the spread
        Q = make()
        ref = np.array([_hutchpp_full_tol_sketch(Q, 12, s, tol) for s in range(20)])
        got = np.array([hutchpp_logdet(Q, 12, action_tol=tol, seed=s).estimate
                        for s in range(20)])
        spread = np.std(ref, ddof=1)
        assert np.max(np.abs(got - ref)) <= 1e-3 * spread
        assert np.std(got, ddof=1) / spread == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("tol", [1e-10, 1e-7, 1e-2, 0.5])
    def test_sketch_at_sqrt_tol_and_forms_at_their_share(self, tol, monkeypatch):
        # 4 sketch actions, 4 deterministic forms on unit basis columns and 4
        # residual forms: B = n tol, a deterministic form's bracket is held to
        # B / 8 and a residual one's, of weight 1/4, to 4 B / 8
        calls = _recorded_rtols(monkeypatch)
        Q = gen_gmrf_grid(12, -0.22)
        hutchpp_logdet(Q, 12, action_tol=tol, seed=0)
        rtols, norms, forms = map(list, zip(*calls))
        budget = Q.n * tol
        assert rtols[:4] == pytest.approx([math.sqrt(tol)] * 4, rel=1e-12)
        assert norms[4:8] == pytest.approx([1.0] * 4, rel=1e-12)
        assert [r * s for r, s in zip(rtols[4:8], norms[4:8])] == pytest.approx(
            [budget / 8] * 4, rel=1e-12)
        assert [r * s for r, s in zip(rtols[8:], norms[8:])] == pytest.approx(
            [4 * budget / 8] * 4, rel=1e-12)
        # the sketch's images are vectors; every other action is a quadratic form
        assert forms == [False] * 4 + [True] * 8

    @pytest.mark.parametrize("tol", [1e-10, 1e-7, 1e-2, 0.5])
    def test_hutchinson_forms_at_tol_exactly(self, tol, monkeypatch):
        # no basis: each of the m probes, ||g||^2 = n, takes m B / m = tol n
        calls = _recorded_rtols(monkeypatch)
        hutchinson_logdet(gen_gmrf_grid(12, -0.22), 12, action_tol=tol, seed=0)
        assert [(rtol, form) for rtol, _, form in calls] == [(tol, True)] * 12

    # the sketch spans R^3 at these seeds: the residual probes are rounding,
    # and seed 12's second one is exactly zero
    @pytest.mark.parametrize("seed", [12, 13, 17, 19])
    def test_spanning_basis_leaves_finite_forms(self, seed, monkeypatch):
        # Gershgorin's lower end, 1, lies below lambda_min = 1.27, so that
        # log(Q/sigma) is regular; on a diagonal matrix it has a null vector
        # and the basis never spans.  A rounding-level probe's rtol, tol share
        # / ||u||^2, is large but finite; a zero probe's is tol
        calls = _recorded_rtols(monkeypatch)
        dense = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
        rep = hutchpp_logdet(SparseMatrixCSR.from_scipy(dense), 12, seed=seed)
        forms = [(rtol, norm_sq) for rtol, norm_sq, form in calls if form]
        assert len(forms) == 7      # 3 deterministic, 4 residual
        assert all(norm_sq < 1e-29 for _, norm_sq in forms[3:])
        assert all(math.isfinite(rtol) for rtol, _ in forms)
        assert (seed == 12) == ((1e-7, 0.0) in forms)
        assert rep.converged and not rep.warnings
        assert rep.estimate == pytest.approx(np.linalg.slogdet(dense)[1], abs=1e-6)

    def test_zero_probe_is_zero_at_no_product(self):
        Q = gen_gmrf_grid(12, -0.22)
        eng = logdet._ActionEngine(Q, None, 400, 0, 1e-7)
        forms = eng.act_all("residual", lambda j: np.zeros(Q.n), 2, 1e-7, share=Q.n)
        assert forms == [0.0] * 2
        assert [(r.degree, r.stop) for r in eng.records] == [(0, "tail")] * 2


class TestHutchinson:
    def test_identity_exact_zero(self):
        rep = hutchinson_logdet(identity_matrix(25), 4, seed=0)
        assert rep.estimate == 0.0

    def test_upper_bound_one_runs_the_actions(self):
        # lambda_max = 1 and sigma = 1/2: log z has d_0 = log 1 = 0, which
        # stopped every action at degree 0 with a zero result; log(z / sigma)
        # has d_0 = log 2.  With +-1 probes on a diagonal matrix every
        # quadratic form is the trace, so only the actions' tolerance remains
        w = np.linspace(0.5, 1.0, 50)
        rep = hutchinson_logdet(SparseMatrixCSR.from_scipy(np.diag(w)), 6, seed=0)
        assert rep.converged and rep.degrees["min"] > 0
        assert rep.estimate == pytest.approx(np.sum(np.log(w)), rel=1e-7)

    def test_needs_one_query(self):
        with pytest.raises(ValueError, match="need at least one query"):
            hutchinson_logdet(identity_matrix(4), 0)

    def test_one_point_interval_is_log_c(self):
        # Gershgorin encloses 3 I in [3, 3]: gamma = 0, one coefficient log 3,
        # summed exactly at degree 0; 3, not 1, so that the coefficient is not 0
        Q = SparseMatrixCSR.from_scipy(3.0 * np.eye(30))
        rep = hutchinson_logdet(Q, 6, seed=0)
        assert rep.estimate == pytest.approx(30 * math.log(3.0), rel=1e-14)
        assert rep.degrees["max"] == 0 and rep.matvecs_total == 0 and rep.converged
        assert rep.queries == 0 and rep.error_bound == 0.0

    def test_diagonal_probe_average(self):
        # Rademacher quadratic forms are exact on diagonal matrices, so the
        # average over any seed sweep lands on the true value
        Q = SparseMatrixCSR.from_scipy(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
        ests = [hutchinson_logdet(Q, 300, seed=s, action_tol=1e-9).estimate
                for s in range(10)]
        assert abs(np.mean(ests) - LOG120) <= 0.01 * LOG120

    @pytest.mark.parametrize("seed", range(3))
    def test_plain_mean_of_the_first_probe_draw(self, seed):
        # Hutch++ with an empty sketch: no deflation, no deterministic term,
        # and the probes are the first draw of the seed's stream
        Q = gen_gmrf_grid(12, -0.22)
        eng = logdet._ActionEngine(Q, None, 400, seed, 1e-7)
        probes = logdet._rademacher(np.random.default_rng(seed), Q.n, 12)
        qforms = eng.act_all("probe", lambda j: logdet._column(probes, j), 12, 1e-7,
                             share=Q.n)
        rep = hutchinson_logdet(Q, 12, seed=seed)
        assert rep.trace_estimate == sum(qforms) / 12
        assert rep.estimate == Q.n * eng.log_sigma + sum(qforms) / 12


class TestTruncationBound:
    """The forms' certified truncation error: the deterministic forms' bracket
    half-widths plus the mean of the residual forms', at most n tol / 2."""

    @pytest.mark.parametrize("g,theta", [(40, -0.22), (300, -0.24)])
    def test_within_half_the_budget(self, g, theta):
        Q = gen_gmrf_grid(g, theta)
        for seed in range(10):
            for rep in (hutchpp_logdet(Q, 12, seed=seed),
                        hutchinson_logdet(Q, 12, seed=seed)):
                assert rep.bracket_stops == 12 - 4 * (rep.method == "leja-hutchpp")
                assert 0 < rep.truncation_bound <= Q.n * 1e-7 / 2

    def test_sums_the_forms_half_widths(self, monkeypatch):
        engines = _recorded_engines(monkeypatch)
        rep = hutchpp_logdet(gen_gmrf_grid(40, -0.22), 12, seed=0)
        (eng,) = engines
        half = {}
        for r in eng.records:
            half.setdefault(r.label.split()[0], []).append(r.error_estimate)
        assert rep.truncation_bound == (sum(half["deterministic"])
                                        + sum(half["residual"]) / 4)

    @pytest.mark.parametrize("report", [
        lambda: slq_logdet(gen_gmrf_grid(20, -0.22), 40, 4, seed=0),
        lambda: estimate(gen_gmrf_grid(20, -0.22), "exact-band"),
        lambda: estimate(gen_gmrf_grid(20, -0.22), "exact-analytic"),
        lambda: hutchpp_logdet(gen_pentadiagonal(10_000, seed=0), 12, seed=0),
        lambda: hutchinson_logdet(random_spd(0, n=200, kappa=1e3)[0], 6, seed=0),
        lambda: hutchpp_logdet(SparseMatrixCSR.from_scipy(
            np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])), 12, seed=12),
    ], ids=["slq", "exact-band", "exact-analytic", "exact-trace", "tail-fallback",
            "zero-probe"])
    def test_none_unless_every_form_stopped_on_its_bracket(self, report):
        rep = report()
        assert rep.truncation_bound is None
        assert rep.method == "slq" or rep.queries == 0 or rep.tail_fallbacks > 0


def _diagonal_with_width(lo, r, n=50):
    """Diagonal matrix with eigenvalues spread over [lo, lo (1 + r)], ends
    included; Gershgorin encloses it exactly."""
    return SparseMatrixCSR.from_scipy(np.diag(lo * (1.0 + r * np.linspace(0.0, 1.0, n))))


# the largest relative width r at which degree K is certified at tolerance
# 1e-7: r^(K+1) / (K+1) = 1e-7
EXACT_TOL = 1e-7
THRESHOLDS = [(3 * EXACT_TOL) ** (1 / 3), math.sqrt(2 * EXACT_TOL), EXACT_TOL]


class TestExactTrace:
    """An enclosure narrow enough for a degree <= 2 interpolant: no probes."""

    @pytest.mark.parametrize("n", [10_000, 100_000])
    @pytest.mark.parametrize("estimator", [hutchpp_logdet, hutchinson_logdet],
                             ids=["hutchpp", "hutchinson"])
    def test_pentadiagonal_within_its_bound(self, estimator, n, recwarn):
        Q = gen_pentadiagonal(n, seed=0)
        exact = band_logdet_cholesky(Q, 2)
        bounds = estimate_interval(Q, "gershgorin")
        # Gershgorin's interval is the default route's and costs no product
        for rep in (estimator(Q, 12, seed=1, bounds=bounds), estimator(Q, 12, seed=1)):
            assert abs(rep.estimate - exact) <= rep.error_bound
            assert rep.queries == 0 and rep.std_error is None
            assert not rep.warnings and rep.converged
            assert rep.degrees == {"min": 0, "median": 0.0, "max": 0}
            assert rep.matvecs_total == 0
            assert rep.estimate == rep.n_log_sigma + rep.trace_estimate
        assert not recwarn.list

    @pytest.mark.parametrize("lo", [0.5, 3.0], ids=["sigma-0.5", "sigma-3"])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("estimator", [hutchpp_logdet, hutchinson_logdet],
                             ids=["hutchpp", "hutchinson"])
    def test_smallest_certified_degree(self, estimator, degree, lo):
        Q = _diagonal_with_width(lo, 0.99 * THRESHOLDS[2 - degree])
        eig = Q.to_scipy().diagonal()
        rep = estimator(Q, 12, action_tol=EXACT_TOL, seed=0)
        assert rep.sigma == lo and rep.queries == 0
        r = (eig[-1] - eig[0]) / eig[0]
        # the bound of `degree`, not of a higher one; a lower one is not certified
        assert rep.error_bound == pytest.approx(Q.n * r ** (degree + 1) / (degree + 1),
                                                rel=1e-6)
        assert degree == 0 or r ** degree / degree > EXACT_TOL
        assert abs(rep.estimate - np.sum(np.log(eig))) <= rep.error_bound
        if degree:      # a degree cap below the certified degree leaves the probes
            capped = estimator(Q, 12, action_tol=EXACT_TOL, seed=0, max_degree=degree - 1)
            assert capped.queries == 12 and capped.error_bound is None

    @pytest.mark.parametrize("degree", [1, 2])
    def test_equals_the_interpolant_trace(self, degree):
        # a rotated matrix (off-diagonal entries) with its exact extremes as
        # the enclosure: the estimate is n log(sigma) + sum P_K(lambda_i) to
        # rounding, P_K interpolating log(z / sigma) with sigma = lambda_min
        rng = np.random.default_rng(0)
        eig = 3.0 * (1.0 + 0.99 * THRESHOLDS[2 - degree] * rng.uniform(size=40))
        eig[:2] = 3.0, 3.0 * (1.0 + 0.99 * THRESHOLDS[2 - degree])
        basis, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        dense = (basis * eig) @ basis.T
        Q = SparseMatrixCSR.from_scipy(0.5 * (dense + dense.T))
        eig = np.linalg.eigvalsh(Q.to_scipy().toarray())
        bounds = SpectralInterval(eig[0], eig[-1])
        rep = hutchinson_logdet(Q, 12, action_tol=EXACT_TOL, bounds=bounds)
        eng = logdet._ActionEngine(Q, bounds, 400, 0, EXACT_TOL)
        # the exact path builds only the coefficients it reads
        assert eng.exact_degree == degree and len(eng.dd) == degree + 1
        xi, d = eng.dd.nodes, eng.dd.coeffs
        x = (eig - bounds.c) / bounds.gamma
        newton = d[0] + d[1] * (x - xi[0]) + (d[2] * (x - xi[0]) * (x - xi[1])
                                              if degree == 2 else 0.0)
        assert rep.queries == 0 and rep.sigma == bounds.lambda_min
        assert rep.estimate == pytest.approx(Q.n * math.log(bounds.lambda_min)
                                             + np.sum(newton), rel=1e-13)
        assert abs(rep.estimate - np.sum(np.log(eig))) <= rep.error_bound

    @pytest.mark.parametrize("estimator,labels", [
        (hutchpp_logdet, [f"{p} action {j}" for p in ("sketch", "deterministic",
                                                        "residual") for j in range(4)]),
        (hutchinson_logdet, [f"probe action {j}" for j in range(12)])],
        ids=["hutchpp", "hutchinson"])
    def test_all_actions_run_above_the_degree_2_threshold(self, estimator, labels,
                                                          monkeypatch):
        engines = _recorded_engines(monkeypatch)
        Q = _diagonal_with_width(3.0, 1.01 * THRESHOLDS[0])
        rep = estimator(Q, 12, action_tol=EXACT_TOL, seed=0)
        (eng,) = engines
        assert [r.label for r in eng.records] == labels
        assert rep.queries == 12 and rep.error_bound is None
        assert rep.matvecs_total == sum(r.degree for r in eng.records) > 0


LEJA_CALLS = [lambda Q, **kw: hutchpp_logdet(Q, 6, **kw),
              lambda Q, **kw: hutchinson_logdet(Q, 6, **kw),
              lambda Q, action_tol=1e-7, **kw: estimate(Q, "leja-hutchpp", queries=6,
                                                        tol=action_tol, **kw),
              lambda Q, action_tol=1e-7, **kw: estimate(Q, "hutchinson", queries=6,
                                                        tol=action_tol, **kw)]
LEJA_CALL_IDS = ["hutchpp", "hutchinson", "estimate-hutchpp", "estimate-hutchinson"]


@pytest.mark.parametrize("call", LEJA_CALLS, ids=LEJA_CALL_IDS)
@pytest.mark.parametrize("bad,message", [
    ({"action_tol": -1e-7}, "action_tol must be positive"),
    ({"action_tol": 0.0}, "action_tol must be positive"),
    ({"action_tol": math.nan}, "action_tol must be positive"),
    ({"action_tol": 1.0}, "action_tol must be below 1"),
    ({"action_tol": 4.0}, "action_tol must be below 1"),
    ({"action_tol": math.inf}, "action_tol must be below 1"),
    ({"max_degree": -1}, "max_degree must be non-negative"),
], ids=["tol-negative", "tol-zero", "tol-nan", "tol-one", "tol-four", "tol-inf",
        "max-degree-negative"])
def test_leja_estimators_refuse_bad_options(call, bad, message, monkeypatch):
    def no_enclosure(*args, **kwargs):
        raise AssertionError("the spectrum was enclosed before the options were checked")

    monkeypatch.setattr(logdet, "estimate_interval", no_enclosure)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(gen_gmrf_grid(12, -0.22), **bad)


@pytest.mark.parametrize("call", LEJA_CALLS, ids=LEJA_CALL_IDS)
def test_leja_estimators_accept_degree_zero(call):
    rep = call(gen_gmrf_grid(12, -0.22), max_degree=0)
    assert rep.degrees["max"] == 0 and len(rep.warnings) == 6


def test_degree_zero_error_estimate_is_the_normalized_constant():
    # at degree 0 a probe's form is d_0 ||v||^2 with d_0 = log(z_0 / sigma),
    # z_0 = lambda_max: on Gershgorin's [0.12, 1.88] the indicator is the
    # tail factor (sqrt(kappa) + 1)^2 / (4 sqrt(kappa)) times
    # log(1.88 / 0.12) ||v||^2, with kappa = 1.88 / 0.12, and every probe of
    # the 144-point lattice has ||v||^2 = 144
    rep = hutchinson_logdet(gen_gmrf_grid(12, -0.22), 6, max_degree=0)
    root = math.sqrt(1.88 / 0.12)
    error = (root + 1.0) ** 2 / (4.0 * root) * math.log(1.88 / 0.12) * 144.0
    assert rep.sigma == pytest.approx(0.12, rel=1e-14)
    assert rep.warnings == [f"probe action {j}: not converged at degree 0 "
                            f"(error estimate {error:.3e})" for j in range(6)]


def test_public_names_resolve():
    import lejadet
    import lejadet.cli
    for module in (lejadet, lejadet.cli):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_readme_names_every_public_name():
    import lejadet
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert [name for name in lejadet.__all__
            if not re.search(rf"\b{name}\b", readme)] == []
    # the CLI section's "Methods:" line lists METHODS, in order
    listed = re.search(r"^Methods: (.*?)\.", readme, re.M | re.S).group(1)
    assert re.findall(r"`([^`]+)`", listed) == list(lejadet.METHODS)


# run in a fresh interpreter in which `import mpmath` fails
NO_MPMATH_RUN = """
import sys
sys.modules["mpmath"] = None
import lejadet
from lejadet.cli import main
report = lejadet.estimate(lejadet.gen_gmrf_grid(10, -0.2), "leja-hutchpp")
assert report.converged and not report.warnings
assert main(["estimate", "--gen", "pentadiagonal:300", "--method", "hutchinson"]) == 0
"""


def test_runtime_path_needs_no_mpmath():
    import lejadet
    package = Path(lejadet.__file__).parent
    assert [f.name for f in package.glob("*.py") if "mpmath" in f.read_text()] == []
    env = dict(os.environ, PYTHONPATH=str(package.parent), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", NO_MPMATH_RUN], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["report"]["method"] == "hutchinson"


# run in a fresh interpreter: the modules that importing lejadet loads
IMPORTED_RUN = """
import sys
import lejadet
import lejadet.cli
print(sorted(name for name in ("scipy.fft", "mpmath") if name in sys.modules))
"""


def test_import_loads_neither_scipy_fft_nor_mpmath():
    # scipy.fft is loaded by the first lattice field draw and mpmath only by
    # the tests, so neither adds to the import time or peak memory of a run
    import lejadet
    package = Path(lejadet.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(package.parent), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", IMPORTED_RUN], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


class TestSLQ:
    def test_identity_exact(self):
        rep = slq_logdet(identity_matrix(30), 10, 5, seed=0)
        assert abs(rep.estimate) <= 1e-10

    def test_full_degree_is_exact_per_probe(self):
        Q = SparseMatrixCSR.from_scipy(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
        rep = slq_logdet(Q, 5, 7, seed=3)
        assert rep.estimate == pytest.approx(LOG120, abs=1e-10)

    def test_gmrf_matches_analytic(self):
        Q = gen_gmrf_grid(25, -0.22)
        exact = gmrf_grid_logdet_analytic(25, -0.22)
        rep = slq_logdet(Q, 30, 40, seed=1)
        assert rep.estimate == pytest.approx(exact, rel=0.05)

    def test_no_normalization_applied(self):
        Q = gen_gmrf_grid(10, -0.22)   # lambda_min < 1, logs go negative
        rep = slq_logdet(Q, 20, 10, seed=0)
        assert rep.n_log_sigma == 0.0 and rep.sigma == 1.0
        assert rep.estimate < 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            slq_logdet(identity_matrix(4), 0, 3)
        with pytest.raises(ValueError):
            slq_logdet(identity_matrix(4), 3, 0)

    def test_refuses_indefinite_matrix(self):
        with pytest.raises(ValueError, match="non-positive Ritz value"):
            slq_logdet(indefinite_matrix(0), 40, 3)

    @pytest.mark.parametrize("diag", [[1.0, 0.0], [1.0] * 50 + [0.0]],
                             ids=["2x2", "51x51"])
    def test_refuses_singular_matrix(self, diag):
        # the smallest Ritz values, 1.1e-16 and 8e-17 of the largest, are
        # rounding: below steps * eps = 4.4e-16 at 2 steps
        Q = SparseMatrixCSR.from_scipy(np.diag(diag))
        with pytest.raises(ValueError, match="non-positive Ritz value"):
            slq_logdet(Q, 40, 30)

    @pytest.mark.parametrize("diag", [np.geomspace(1e-12, 1.0, 200),
                                      [2.0] * 300 + [1e-9]],
                             ids=["geomspace", "one-tiny"])
    def test_accepts_ill_conditioned_matrix(self, diag):
        # Ritz ratios 4.6e-6 (40 steps) and 5e-10 (2 steps), above steps * eps
        Q = SparseMatrixCSR.from_scipy(np.diag(diag))
        rep = slq_logdet(Q, 40, 3)
        assert np.isfinite(rep.estimate) and rep.converged

    def test_column_major_basis_matches_row_major_reference(self, monkeypatch):
        Q = gen_gmrf_grid(40, -0.24)
        new = slq_logdet(Q, 30, 5, seed=2)
        monkeypatch.setattr(logdet, "_lanczos", _lanczos_c_order)
        ref = slq_logdet(Q, 30, 5, seed=2)
        assert new.degrees == ref.degrees
        assert abs(new.estimate - ref.estimate) <= 1e-12 * abs(ref.estimate)

    @pytest.mark.parametrize("make,m_l", SLQ_CASES, ids=SLQ_IDS)
    def test_plain_matches_full_reorthogonalization(self, make, m_l, monkeypatch):
        # lost orthogonality only copies converged Ritz values, whose Gauss
        # weights add up to the one they copy: the rule moves by a small
        # fraction of the probe spread (at most 0.1 std_error over these cases)
        Q = make()
        plain = slq_logdet(Q, m_l, 5, seed=3)
        monkeypatch.setattr(logdet, "_lanczos", _lanczos_c_order)
        full = slq_logdet(Q, m_l, 5, seed=3)
        assert plain.degrees == full.degrees
        assert abs(plain.estimate - full.estimate) <= 0.25 * full.std_error

    @pytest.mark.parametrize("make", [lambda: gen_pentadiagonal(10_000, seed=0),
                                      lambda: gen_gmrf_grid(40, -0.24),
                                      lambda: gen_pentadiagonal(100_000, seed=0)],
                             ids=["penta-1e4", "lattice-40", "penta-1e5"])
    def test_bitwise_equal_to_measured_loss_where_no_correction_is_due(
            self, make, monkeypatch):
        Q = make()
        new = slq_logdet(Q, 40, 10, seed=0)
        monkeypatch.setattr(logdet, "_lanczos", _lanczos_measured)
        ref = slq_logdet(Q, 40, 10, seed=0)
        assert (new.estimate, new.degrees) == (ref.estimate, ref.degrees)

    @pytest.mark.parametrize("make,m_l", SLQ_CASES_1E5, ids=SLQ_IDS_1E5)
    def test_two_vector_passes_equal_kept_bases_bitwise(self, make, m_l, monkeypatch):
        # the ring of two columns overwrites q_{j-1} only after the update
        # has read it: the same recurrence on a kept n x m_l basis agrees
        # bitwise, also where the vectors have lost orthogonality
        Q = make()
        new = slq_logdet(Q, m_l, 5, seed=3)
        monkeypatch.setattr(logdet, "_lanczos", _lanczos_kept_basis)
        ref = slq_logdet(Q, m_l, 5, seed=3)
        assert ((new.estimate, new.degrees, new.std_error)
                == (ref.estimate, ref.degrees, ref.std_error))

    @pytest.mark.parametrize("make,m_l", SLQ_CASES[:2], ids=SLQ_IDS[:2])
    def test_structured_inputs_stay_orthogonal(self, make, m_l, monkeypatch):
        assert max(_orthogonality_losses(monkeypatch, [make()], m_l)) <= SQRT_EPS

    @pytest.mark.parametrize("kappa", [1e2, 1e3, 1e4], ids=lambda k: f"kappa{k:.0e}")
    @pytest.mark.parametrize("m_l", [40, 80], ids=lambda m: f"m{m}")
    def test_random_spd_inputs_lose_orthogonality(self, kappa, m_l, monkeypatch):
        # the comparison with full reorthogonalization is only a test where
        # plain Lanczos loses orthogonality: at m_l = 40 in a quarter of the
        # seeds at least, at m_l = 80 in every seed and far beyond sqrt(eps)
        matrices = [random_spd(s, n=200, kappa=kappa)[0] for s in range(20)]
        per_seed = [max(_orthogonality_losses(monkeypatch, [Q], m_l)) for Q in matrices]
        if m_l == 80:
            assert min(per_seed) > 0.1
        else:
            assert sum(loss > SQRT_EPS for loss in per_seed) >= 5

    @pytest.mark.parametrize("make,m_l", SLQ_CASES, ids=SLQ_IDS)
    def test_matvecs_are_the_sum_of_degrees(self, make, m_l, monkeypatch):
        Q = make()
        quadrature, degrees = logdet._lanczos_quadrature, []

        def recording(m_sp, v, m_l, lowest):
            result = quadrature(m_sp, v, m_l, lowest)
            degrees.append(result[1])
            return result

        monkeypatch.setattr(logdet, "_lanczos_quadrature", recording)
        rep = slq_logdet(Q, m_l, 5, seed=3)
        assert len(degrees) == 5
        assert rep.matvecs_total == sum(degrees)

    @pytest.mark.parametrize("make,m_l", SLQ_CASES_1E5, ids=SLQ_IDS_1E5)
    def test_stops_only_where_the_bracket_closed(self, make, m_l, monkeypatch):
        # against the same passes with no lower end, hence no bracket, which
        # run m_l steps: a probe that stops has its Gauss and Gauss-Radau
        # rules within rounding of each other, so it stays within 1e-14
        # relative of its full pass; a probe that does not stop (no lower
        # end on random_spd, no closed bracket on lattice-40) is the same
        # computation
        Q = make()
        quadrature, probes = logdet._lanczos_quadrature, {"new": [], "full": []}

        def run(label):
            def recording(m_sp, v, m_l, lowest):
                result = quadrature(m_sp, v, m_l, lowest if label == "new" else 0.0)
                probes[label].append(result)
                return result

            monkeypatch.setattr(logdet, "_lanczos_quadrature", recording)
            return slq_logdet(Q, m_l, 5, seed=3)

        new, full = run("new"), run("full")
        assert full.matvecs_total == 5 * m_l and full.bracket_stops == 0
        assert new.bracket_stops == sum(half is not None for _, _, half in probes["new"])
        for (value, steps, half), (reference, _, _) in zip(probes["new"], probes["full"]):
            if half is None:
                assert (value, steps) == (reference, m_l)
            else:
                assert steps < m_l
                assert abs(value - reference) <= 1e-14 * abs(reference)
        if new.bracket_stops == 0:
            assert ((new.estimate, new.degrees, new.std_error)
                    == (full.estimate, full.degrees, full.std_error))

    @pytest.mark.parametrize("n", [10_000, 100_000], ids=["penta-1e4", "penta-1e5"])
    def test_pentadiagonal_probes_stop_at_2_steps(self, n):
        # kappa ~= 1.0001: the bracket is closed to rounding after 2 steps,
        # the first check point
        rep = slq_logdet(gen_pentadiagonal(n, seed=0), 40, 5, seed=3)
        assert rep.degrees == {"min": 2, "median": 2.0, "max": 2}
        assert rep.matvecs_total == 5 * 2

    @pytest.mark.parametrize("n_v", [1, 10])
    def test_pentadiagonal_probes_count_as_bracket_stops(self, n_v):
        rep = slq_logdet(gen_pentadiagonal(10_000, seed=0), 40, n_v, seed=0)
        assert rep.bracket_stops == n_v and rep.tail_fallbacks == 0
        assert rep.converged and rep.warnings == []

    def test_bracket_holds_the_form_at_every_check_point(self, monkeypatch):
        # on a diagonal Q every Rademacher probe has v' log(Q) v = tr log Q;
        # the Gauss rule is above it and the Gauss-Radau rule at Q's
        # Gershgorin end, here lambda_min, below it, at every check point
        # (2, 4 and the ones the width's decay picks) until they meet
        diag = np.geomspace(1.0, 10.0, 300)
        Q = SparseMatrixCSR.from_scipy(np.diag(diag))
        exact = float(np.sum(np.log(diag)))
        rules = {"gauss": [], "radau": []}
        check, radau_rule = quadrature.Bracket.check, quadrature.radau_rule

        def recorded_check(bracket, *args):
            midpoint = check(bracket, *args)
            rules["gauss"].append(bracket.gauss)
            return midpoint

        def recorded_radau(*args):
            rules["radau"].append(radau_rule(*args))
            return rules["radau"][-1]

        monkeypatch.setattr(quadrature.Bracket, "check", recorded_check)
        monkeypatch.setattr(quadrature, "radau_rule", recorded_radau)
        rep = slq_logdet(Q, 80, 5, seed=0)
        assert rep.bracket_stops == 5 and rep.degrees["max"] < 80
        assert len(rules["gauss"]) == len(rules["radau"]) >= 3 * 5
        slack = 1e-13 * abs(exact)
        for gauss, radau in zip(rules["gauss"], rules["radau"]):
            assert radau.value - slack <= exact <= gauss.value + slack
        assert rep.estimate == pytest.approx(exact, rel=1e-13)

    def test_failed_radau_rule_runs_the_probe_to_m_l(self, monkeypatch):
        # a Radau rule that does not exist at the first check point ends the
        # bracket: every probe runs its 40 steps, as with no lower end, where
        # otherwise it stops at 2
        Q = gen_pentadiagonal(10_000, seed=0)
        radau_rule = quadrature.radau_rule
        monkeypatch.setattr(quadrature, "radau_rule", lambda beta0_sq, alphas, *args: (
            None if len(alphas) == 2 else radau_rule(beta0_sq, alphas, *args)))
        rep = slq_logdet(Q, 40, 5, seed=0)
        G = _probes(np.random.default_rng(0), Q.n, 5)
        terms = [logdet._lanczos_quadrature(Q.to_scipy(), G[:, j], 40, 0.0)[0]
                 for j in range(5)]
        assert rep.degrees == {"min": 40, "median": 40.0, "max": 40}
        assert rep.bracket_stops == 0
        assert rep.estimate == sum(terms) / 5

    @pytest.mark.parametrize("c", POWERS_OF_TWO, ids=lambda c: f"2^{math.log2(c):.0f}")
    @pytest.mark.parametrize("make", [lambda: gen_gmrf_grid(40, -0.24),
                                      lambda: random_spd(0, n=200, kappa=1e3)[0]],
                             ids=["lattice-40", "spd-0"])
    def test_scale_free(self, make, c):
        # log det(cQ) = log det Q + n log c, and the relative breakdown rule
        # runs every probe as many steps at any scale: an absolute floor
        # stopped every lattice probe after one step below unit scale
        Q = make()
        base = slq_logdet(Q, 40, 5, seed=3)
        rep = slq_logdet(scaled(Q, c), 40, 5, seed=3)
        assert rep.degrees == base.degrees
        shifted = rep.estimate - Q.n * math.log(c)
        assert abs(shifted - base.estimate) <= 1e-12 * abs(rep.estimate)


def _lanczos_kept_basis(apply, v, steps, bases=None):
    """``spectral._lanczos`` with the whole n x steps basis kept, in its BLAS
    calls: the reference the ring of two columns must match bitwise.  The
    basis is appended to ``bases`` when one is given."""
    basis = np.empty((v.shape[0], steps), order="F")
    if bases is not None:
        bases.append(basis)
    np.divide(v, np.sqrt(ddot(v, v)), out=basis[:, 0])
    alphas, betas = np.empty((2, steps))
    for j in range(steps):
        q = basis[:, j]
        w = apply(q)
        alphas[j] = ddot(q, w)
        w = daxpy(q, w, a=-alphas[j])
        if j > 0:
            w = daxpy(basis[:, j - 1], w, a=-betas[j - 1])
        b = np.sqrt(ddot(w, w))
        if b <= 1e-12 * np.max(np.abs(alphas[:j + 1])):
            yield alphas[:j + 1], betas[:j]
            return
        betas[j] = b
        yield alphas[:j + 1], betas[:j + 1]
        if j + 1 < steps:
            np.divide(w, b, out=basis[:, j + 1])


def _orthogonality_losses(monkeypatch, matrices, m_l):
    """max |V'V - I| of each probe's plain Lanczos basis, over the steps it
    runs, for the probes ``slq_logdet(Q, m_l, 5, seed=3)`` draws for each
    matrix."""
    quadrature, bases, losses = logdet._lanczos_quadrature, [], []

    def recording(m_sp, v, m_l, lowest):
        result = quadrature(m_sp, v, m_l, lowest)
        basis = bases.pop()[:, :result[1]]
        losses.append(float(np.max(np.abs(basis.T @ basis - np.eye(result[1])))))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(logdet, "_lanczos",
                      lambda apply, v, steps: _lanczos_kept_basis(apply, v, steps, bases))
        patch.setattr(logdet, "_lanczos_quadrature", recording)
        for Q in matrices:
            slq_logdet(Q, m_l, 5, seed=3)
    return losses


def _lanczos_measured(apply, v, steps):
    """Reference Lanczos that measures the loss of orthogonality at every step.

    h = V' w is formed against the whole basis after each three-term step,
    and w -= V h is applied when max|h| > sqrt(eps) ||w||.  The BLAS calls
    are those of ``spectral._lanczos``, so where no correction is due the
    estimator, whose stop test reads this tridiagonal, agrees bitwise.
    """
    basis = np.empty((v.shape[0], steps), order="F")
    np.divide(v, np.sqrt(ddot(v, v)), out=basis[:, 0])
    alphas, betas = np.empty((2, steps))
    for j in range(steps):
        q = basis[:, j]
        w = apply(q)
        alphas[j] = ddot(q, w)
        w = daxpy(q, w, a=-alphas[j])
        if j > 0:
            w = daxpy(basis[:, j - 1], w, a=-betas[j - 1])
        active = basis[:, :j + 1]
        h = dgemv(1.0, active, w, trans=1)
        b = np.sqrt(ddot(w, w))
        if np.max(np.abs(h)) > SQRT_EPS * b:
            w = dgemv(-1.0, active, h, beta=1.0, y=w, overwrite_y=True)
            b = np.sqrt(ddot(w, w))
        if b <= 1e-12 * np.max(np.abs(alphas[:j + 1])):
            yield alphas[:j + 1], betas[:j]
            return
        betas[j] = b
        yield alphas[:j + 1], betas[:j + 1]
        if j + 1 < steps:
            np.divide(w, b, out=basis[:, j + 1])


def _lanczos_c_order(apply, v, steps):
    """Reference Lanczos with a row-major, fully reorthogonalized basis (the
    original layout), yielding as ``spectral._lanczos`` does."""
    basis = np.empty((v.shape[0], steps))
    basis[:, 0] = v / np.sqrt(float(v @ v))
    alphas, betas = np.empty((2, steps))
    for j in range(steps):
        w = apply(basis[:, j])
        alphas[j] = float(basis[:, j] @ w)
        w -= alphas[j] * basis[:, j]
        if j > 0:
            w -= betas[j - 1] * basis[:, j - 1]
        w -= basis[:, :j + 1] @ (basis[:, :j + 1].T @ w)
        b = float(np.linalg.norm(w))
        if b <= 1e-12 * np.max(np.abs(alphas[:j + 1])):
            yield alphas[:j + 1], betas[:j]
            return
        betas[j] = b
        yield alphas[:j + 1], betas[:j + 1]
        if j + 1 < steps:
            basis[:, j + 1] = w / b


class TestRademacher:
    @pytest.mark.parametrize("n,k,seed", [(1, 1, 0), (7, 3, 1), (16384, 4, 2),
                                          (21846, 3, 3), (50_001, 5, 4)])
    def test_bitwise_equal_to_one_shot_draw(self, n, k, seed):
        ref_rng = np.random.default_rng(seed)
        ref = ref_rng.integers(0, 2, size=(n, k)).astype(float) * 2 - 1
        rng = np.random.default_rng(seed)
        got = logdet._rademacher(rng, n, k)
        assert got.flags.f_contiguous and got.dtype == np.int8
        assert got.astype(float).tobytes() == ref.tobytes()
        assert logdet._column(got, k - 1).tobytes() == ref[:, k - 1].tobytes()
        # the stream continues where the one-shot draw leaves it
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


def test_hutchpp_engine_keeps_no_vectors(monkeypatch):
    """After an estimate the engine holds diagnostics, not action results."""
    engines = _recorded_engines(monkeypatch)
    Q = gen_gmrf_grid(50, -0.2)
    rep = hutchpp_logdet(Q, 12, seed=0)
    (eng,) = engines
    assert len(eng.records) == 12
    assert sum(r.degree for r in eng.records) == rep.matvecs_total

    def arrays(obj, seen):
        if id(obj) in seen or obj is Q:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            for x in obj:
                yield from arrays(x, seen)
        elif hasattr(obj, "__dict__"):
            for x in vars(obj).values():
                yield from arrays(x, seen)

    assert all(a.size < Q.n for a in arrays(eng, set()))


@pytest.mark.parametrize("estimator", [hutchpp_logdet, hutchinson_logdet],
                         ids=["hutchpp", "hutchinson"])
@pytest.mark.parametrize("make_q", [lambda: gen_gmrf_grid(20, -0.2),
                                    lambda: gen_pentadiagonal(300, seed=0)],
                         ids=["lattice-sigma-0.2", "penta-sigma-1"])
def test_no_action_result_outlives_its_action(monkeypatch, estimator, make_q):
    """Every action starts with the n-vectors of the earlier ones freed: a
    live one would add an n-vector to the peak (test_memory.py).  Those are
    each action's input and its result vector; a quadratic form's result
    holds no n-vector at all."""
    refs, alive, forms = [], [], []

    def tracked(Q, v, *args, **kwargs):
        alive.append(sum(r() is not None for r in refs))
        res = log_matvec(Q, v, *args, **kwargs)
        refs.append(weakref.ref(v))
        if res.vector is None:
            forms.append(all(not isinstance(x, np.ndarray) or x.size < Q.n
                             for x in vars(res).values()))
        else:
            refs.append(weakref.ref(res.vector))
        return res

    monkeypatch.setattr(logdet, "log_matvec", tracked)
    estimator(make_q(), 12, seed=0)
    assert alive == [0] * 12
    assert forms == [True] * (8 if estimator is hutchpp_logdet else 12)


@pytest.mark.parametrize("seed", [0, 1])
def test_hutchinson_equal_with_the_vector_table_built(seed, monkeypatch):
    """A Hutchinson run never builds the vector coefficient table; building
    it at set-up, as every run once did, changes nothing in the report."""
    Q = gen_gmrf_grid(20, -0.2)
    lazy = hutchinson_logdet(Q, 12, seed=seed)

    class Eager(logdet._ActionEngine):
        def __init__(self, *args):
            super().__init__(*args)
            self.dd     # builds the vector table at set-up

    monkeypatch.setattr(logdet, "_ActionEngine", Eager)
    eager = hutchinson_logdet(Q, 12, seed=seed)
    for rep in (lazy, eager):
        rep.wall_time = 0.0
    assert lazy.to_dict() == eager.to_dict()


@pytest.mark.parametrize("estimator,tables", [(hutchinson_logdet, 1), (hutchpp_logdet, 2)],
                         ids=["hutchinson", "hutchpp"])
def test_probe_run_builds_only_the_tables_it_reads(estimator, tables, monkeypatch):
    """Hutchinson reads the doubled table of its quadratic forms only;
    Hutch++ reads it and the vector table of its sketch actions."""
    calls = []

    def counted(nodes, bounds):
        calls.append(len(nodes))
        return divided_differences_log(nodes, bounds)

    monkeypatch.setattr(logdet, "divided_differences_log", counted)
    rep = estimator(gen_gmrf_grid(20, -0.2), 12, seed=0)
    assert rep.queries == 12 and len(calls) == tables
    assert calls[0] == 2 * logdet.DEFAULT_MAX_DEGREE + 1
