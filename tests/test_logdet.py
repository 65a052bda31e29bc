import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from conftest import random_spd
from lejadet import logdet
from lejadet import (SparseMatrixCSR, SpectralInterval, gen_gmrf_grid,
                     gen_pentadiagonal, gmrf_grid_logdet_analytic,
                     hutchinson_logdet, hutchpp_logdet, normalize, slq_logdet)

LOG120 = math.log(120.0)


def identity_matrix(n):
    return SparseMatrixCSR.from_scipy(sp.identity(n, format="csr"))


class TestNormalization:
    def test_scaled_branch(self):
        norm = normalize(SpectralInterval(0.12, 1.88))
        assert norm.scaled and norm.sigma == 0.12
        assert 1.88 / norm.sigma == pytest.approx(15.666666666666666)

    def test_unscaled_branch(self):
        norm = normalize(SpectralInterval(2.0, 5.0))
        assert not norm.scaled and norm.sigma == 1.0

    def test_direct_division(self):
        norm = normalize(SpectralInterval(0.5, 0.8))
        assert norm.sigma == 0.5
        assert 0.8 / norm.sigma == pytest.approx(1.6)

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
        assert a.seed == 7 and a.reduction == "sequential"

    def test_parallel_mode_recorded_and_sane(self):
        Q = gen_gmrf_grid(12, -0.22)
        seq = hutchpp_logdet(Q, 12, seed=3)
        par = hutchpp_logdet(Q, 12, seed=3, reduction="parallel")
        assert par.reduction == "parallel"
        assert par.estimate == seq.estimate

    def test_parallel_mode_matches_sequential_report(self):
        # degree cap hit on every action: the warnings list has one line per
        # action, and must come out in the same (task) order in both modes
        Q = gen_gmrf_grid(12, -0.22)
        for est in (hutchpp_logdet, hutchinson_logdet):
            seq = est(Q, 12, seed=3, action_tol=1e-12, max_degree=5)
            par = est(Q, 12, seed=3, action_tol=1e-12, max_degree=5,
                      reduction="parallel")
            assert len(seq.warnings) == 12
            assert (par.estimate, par.degrees, par.matvecs_total, par.warnings) == \
                (seq.estimate, seq.degrees, seq.matvecs_total, seq.warnings)

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
        again = LogDetReport.from_dict(rep.to_dict())
        assert again == rep


class TestHutchPP:
    def test_identity_exact_zero(self):
        for n in (10, 400):
            rep = hutchpp_logdet(identity_matrix(n), 6, seed=0)
            assert rep.estimate == 0.0

    def test_constant_diagonal_full_rank_capture(self):
        # spectrum is a single point; with k = n the sketch basis spans
        # everything, the residual vanishes, and the estimate is exact
        Q = SparseMatrixCSR.from_dense(np.diag(np.full(100, 2.0)))
        rep = hutchpp_logdet(Q, 300, seed=0, action_tol=1e-10)
        assert rep.estimate == pytest.approx(100 * math.log(2.0), abs=1e-6)

    def test_rank_deficient_log_captured_deterministically(self):
        # log has rank 4 on diag(1..5); k >= 4 captures the trace exactly
        Q = SparseMatrixCSR.from_dense(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
        rep = hutchpp_logdet(Q, 12, seed=0, action_tol=1e-10)
        assert rep.estimate == pytest.approx(LOG120, abs=1e-6)

    def test_needs_three_queries(self):
        with pytest.raises(ValueError, match="3"):
            hutchpp_logdet(identity_matrix(4), 2)

    def test_scaling_routes_agree(self):
        # same probe draws, different divided-difference scaling; half-max
        # converges only conditionally so it reports a truncation warning,
        # but the estimates must coincide up to that truncation error
        Q = gen_gmrf_grid(20, -0.22)
        center = hutchpp_logdet(Q, 9, seed=4, scaling="center")
        half = hutchpp_logdet(Q, 9, seed=4, scaling="half-max")
        exact = gmrf_grid_logdet_analytic(20, -0.22)
        assert half.estimate == pytest.approx(center.estimate,
                                              abs=1e-3 * abs(exact))
        assert not center.warnings
        assert any("truncated" in w for w in half.warnings)

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
        Q = SparseMatrixCSR.from_dense(0.5 * (dense + dense.T))
        bounds = SpectralInterval(1.0, 410.0)
        hpp = [hutchpp_logdet(Q, 12, seed=s, bounds=bounds).estimate
               for s in range(20)]
        hut = [hutchinson_logdet(Q, 12, seed=s, bounds=bounds).estimate
               for s in range(20)]
        assert np.var(hpp, ddof=1) <= np.var(hut, ddof=1)


class TestHutchinson:
    def test_identity_exact_zero(self):
        rep = hutchinson_logdet(identity_matrix(25), 4, seed=0)
        assert rep.estimate == 0.0

    def test_diagonal_probe_average(self):
        # Rademacher quadratic forms are exact on diagonal matrices, so the
        # average over any seed sweep lands on the true value
        Q = SparseMatrixCSR.from_dense(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
        ests = [hutchinson_logdet(Q, 300, seed=s, action_tol=1e-9).estimate
                for s in range(10)]
        assert abs(np.mean(ests) - LOG120) <= 0.01 * LOG120


class TestSLQ:
    def test_identity_exact(self):
        rep = slq_logdet(identity_matrix(30), 10, 5, seed=0)
        assert abs(rep.estimate) <= 1e-10

    def test_full_degree_is_exact_per_probe(self):
        Q = SparseMatrixCSR.from_dense(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
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

    def test_parallel_reduction(self):
        Q = gen_gmrf_grid(12, -0.2)
        seq = slq_logdet(Q, 10, 8, seed=5)
        par = slq_logdet(Q, 10, 8, seed=5, reduction="parallel")
        assert par.reduction == "parallel"
        assert par.estimate == seq.estimate

    def test_column_major_basis_matches_row_major_reference(self, monkeypatch):
        Q = gen_gmrf_grid(40, -0.24)
        new = slq_logdet(Q, 30, 5, seed=2)
        monkeypatch.setattr(logdet, "_lanczos_quadrature", _lanczos_quadrature_c_order)
        ref = slq_logdet(Q, 30, 5, seed=2)
        assert new.degrees == ref.degrees
        assert abs(new.estimate - ref.estimate) <= 1e-12 * abs(ref.estimate)

    @pytest.mark.parametrize("make", [
        lambda: gen_pentadiagonal(10_000, seed=0),
        lambda: gen_gmrf_grid(40, -0.24),
        lambda: random_spd(0, n=200, kappa=1e3)[0],
        lambda: random_spd(1, n=200, kappa=1e3)[0],
        lambda: random_spd(2, n=200, kappa=1e3)[0],
    ], ids=["penta-1e4", "lattice-40", "spd-0", "spd-1", "spd-2"])
    def test_semi_orthogonal_matches_full_reorthogonalization(self, make, monkeypatch):
        Q = make()
        semi = slq_logdet(Q, 40, 5, seed=3)
        monkeypatch.setattr(logdet, "_SEMI_ORTHO", 0.0)   # correct at every step
        full = slq_logdet(Q, 40, 5, seed=3)
        assert semi.degrees == full.degrees
        assert abs(semi.estimate - full.estimate) <= 1e-12 * abs(full.estimate)

    @pytest.mark.parametrize("make,fired", [
        (lambda: gen_pentadiagonal(10_000, seed=0), False),
        (lambda: random_spd(2, n=200, kappa=1e3)[0], True),
    ], ids=["penta-1e4", "spd-2"])
    def test_corrections_only_where_orthogonality_is_lost(self, make, fired,
                                                          monkeypatch):
        Q = make()
        dgemv = logdet.dgemv
        corrections = []

        def counting_dgemv(*args, **kwargs):
            if "y" in kwargs:           # w -= V h; the pass h = V'w passes no y
                corrections.append(args[0])
            return dgemv(*args, **kwargs)

        monkeypatch.setattr(logdet, "dgemv", counting_dgemv)
        slq_logdet(Q, 40, 10, seed=0)
        assert bool(corrections) == fired


def _lanczos_quadrature_c_order(m_sp, v, m_l):
    """Reference SLQ probe with a row-major Lanczos basis (the original layout)."""
    n = v.shape[0]
    beta0_sq = float(v @ v)
    basis = np.empty((n, m_l))
    basis[:, 0] = v / np.sqrt(beta0_sq)
    alphas = np.empty(m_l)
    betas = np.empty(max(m_l - 1, 0))
    steps = m_l
    for j in range(m_l):
        w = m_sp @ basis[:, j]
        alphas[j] = float(basis[:, j] @ w)
        w -= alphas[j] * basis[:, j]
        if j > 0:
            w -= betas[j - 1] * basis[:, j - 1]
        w -= basis[:, :j + 1] @ (basis[:, :j + 1].T @ w)
        if j == m_l - 1:
            break
        b = float(np.linalg.norm(w))
        if b <= 1e-12 * max(np.max(np.abs(alphas[:j + 1])), 1.0):
            steps = j + 1
            break
        betas[j] = b
        basis[:, j + 1] = w / b
    theta, vecs = eigh_tridiagonal(alphas[:steps], betas[:steps - 1])
    return beta0_sq * float(vecs[0, :] ** 2 @ np.log(theta)), steps


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
    engines = []

    class Recording(logdet._ActionEngine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(logdet, "_ActionEngine", Recording)
    Q = gen_gmrf_grid(50, -0.2)
    rep = hutchpp_logdet(Q, 12, seed=0)
    (eng,) = engines
    assert len(eng.records) == 12
    assert eng.report_fields()[1] == rep.matvecs_total

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
