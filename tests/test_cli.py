import csv
import inspect
import io
import json
import math
import re

import numpy as np
import pytest
import scipy.sparse
from scipy.fft import dstn

from conftest import indefinite_matrix, random_spd
from dense_oracles import dense_logdet_cholesky
from lejadet import (METHODS, LogDetReport, SparseMatrixCSR, band_logdet_cholesky,
                     estimate, gen_pentadiagonal)
from lejadet import (gen_gmrf_grid, gmrf_grid_logdet_analytic, gmrf_likelihood_scan,
                     load_matrix_market, write_matrix_market)
from lejadet.cli import BENCH_COLUMNS, _theta_grid, build_parser, main
from lejadet import likelihood
from lejadet.likelihood import _sample_field
from lejadet.oracle import lattice_eigenvalues

# the JSON keys of `estimate`; an estimator run and an exact run share them
RESULT_KEYS = {"config", "matrix", "report", "exact"}
CONFIG_KEYS = ["method", "matrix", "gen", "queries", "probes", "slq_degree", "tol",
               "seed", "format", "max_degree", "with_exact"]
REPORT_KEYS = {"method", "estimate", "trace_estimate", "n_log_sigma", "sigma",
               "queries", "degrees", "seed", "wall_time", "matvecs_total",
               "warnings", "converged", "std_error", "enclosure", "error_bound",
               "bracket_stops", "tail_fallbacks", "truncation_bound"}

# the estimator options every estimator command refuses before it runs, with
# their messages; each command line below is complete apart from them
BAD_OPTIONS = [(("--tol", "0"), "--tol must be positive"),
               (("--tol", "nan"), "--tol must be positive"),
               (("--tol", "1"), "--tol must be below 1"),
               (("--tol", "inf"), "--tol must be below 1"),
               (("--seed", "-1"), "seed must be a non-negative integer, got -1"),
               (("--max-degree", "-1"), "--max-degree must be non-negative")]
BAD_OPTION_IDS = ["tol-0", "tol-nan", "tol-1", "tol-inf", "seed-negative",
                  "max-degree-negative"]


# [[4, 1], [2, 4]] in general storage; its lower triangle mirrored has log det
# log 12, the matrix itself log 14
ASYMMETRIC_MTX = ("%%MatrixMarket matrix coordinate real general\n"
                  "2 2 4\n1 1 4.0\n1 2 1.0\n2 1 2.0\n2 2 4.0\n")


def corner_pair_matrix(n):
    """4 I with 1 at (0, n - 1) and (n - 1, 0): bandwidth n - 1, so banded
    Cholesky would store n^2 entries and refuses for n > 14,142."""
    i, j = np.r_[np.arange(n), 0, n - 1], np.r_[np.arange(n), n - 1, 0]
    v = np.r_[np.full(n, 4.0), 1.0, 1.0]
    return SparseMatrixCSR.from_scipy(scipy.sparse.coo_matrix((v, (i, j)), shape=(n, n)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEstimate:
    def test_json_report_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--gen", "pentadiagonal:1000",
                               "--method", "leja-hutchpp", "--queries", "12",
                               "--seed", "1", "--with-exact")
        assert code == 0
        result = json.loads(out)
        rep = LogDetReport(**result["report"])
        assert rep.to_dict() == result["report"]
        # config block embeds every resolved value, defaults included
        assert result["config"]["seed"] == 1
        assert result["config"]["tol"] == 1e-7
        assert rep.enclosure == "gershgorin"
        assert result["matrix"]["n"] == 1000
        assert result["report"]["wall_time"] > 0
        assert result["report"]["degrees"]["max"] >= 1
        # band oracle is feasible for the generator; the error is recorded
        assert result["exact"]["oracle"] == "band-cholesky"
        assert result["exact"]["rel_err"] < 5e-2

    def test_json_key_sets(self, capsys):
        for method in ("leja-hutchpp", "exact-band"):
            code, out, _ = run_cli(capsys, "estimate", "--gen", "pentadiagonal:200",
                                   "--method", method, "--with-exact")
            assert code == 0
            result = json.loads(out)
            assert set(result) == RESULT_KEYS
            assert list(result["config"]) == CONFIG_KEYS       # in this order
            assert set(result["report"]) == REPORT_KEYS
            assert set(result["report"]["degrees"]) == {"min", "median", "max"}
            if method == "leja-hutchpp":
                assert set(result["exact"]) == {"value", "rel_err", "oracle"}
            else:
                assert result["exact"] is None

    def test_estimate_matches_direct_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--gen", "pentadiagonal:500",
                               "--method", "leja-hutchpp", "--queries", "12",
                               "--seed", "3")
        result = json.loads(out)
        ref = band_logdet_cholesky(gen_pentadiagonal(500, seed=3), 2)
        assert abs(result["report"]["estimate"] - ref) / abs(ref) < 5e-2

    def test_exact_analytic_method(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--gen", "gmrf:30:-0.22",
                               "--method", "exact-analytic")
        assert code == 0
        result = json.loads(out)
        assert result["report"]["estimate"] == gmrf_grid_logdet_analytic(30, -0.22)

    def test_exact_analytic_needs_gmrf(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--gen", "pentadiagonal:50",
                               "--method", "exact-analytic")
        assert code == 1
        assert "analytic" in err

    def test_slq_method(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--gen", "gmrf:20:-0.22",
                               "--method", "slq", "--slq-degree", "25",
                               "--probes", "30", "--seed", "2")
        assert code == 0
        result = json.loads(out)
        exact = gmrf_grid_logdet_analytic(20, -0.22)
        assert abs(result["report"]["estimate"] - exact) / abs(exact) < 0.1

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--gen", "gmrf:10:-0.2",
                               "--method", "hutchinson", "--queries", "8",
                               "--format", "table")
        assert code == 0
        assert "estimate" in out and "wall time" in out
        # every probe's form closes its Gauss-Radau bracket on the lattice
        assert ("forms           8 stopped on the bracket / 0 fell back to the tail rule"
                in out.splitlines())
        assert "enclosure       gershgorin" in out.splitlines()
        (line,) = [ln for ln in out.splitlines() if ln.startswith("std error")]
        assert float(line.split()[-1]) > 0
        assert "error bound     -" in out.splitlines()
        # the forms' certified truncation error, within half of n * tol
        (line,) = [ln for ln in out.splitlines() if ln.startswith("truncation")]
        assert 0 < float(line.split()[-1]) <= 100 * 1e-7 / 2

    def test_exact_trace_shows_its_bound(self, capsys):
        # pentadiagonal 10^4: the enclosure certifies a degree-2 interpolant
        code, out, _ = run_cli(capsys, "estimate", "--gen", "pentadiagonal:10000",
                               "--method", "leja-hutchpp", "--format", "table")
        assert code == 0
        lines = out.splitlines()
        (line,) = [ln for ln in lines if ln.startswith("error bound")]
        assert 0 < float(line.split()[-1]) < 1e-3
        assert "std error       -" in lines and "queries         0" in lines
        assert "truncation      -" in lines
        code, out, _ = run_cli(capsys, "bench", "--gen", "pentadiagonal:10000",
                               "--methods", "hutchinson,exact-band")
        assert code == 0
        rows = {r["method"]: r for r in csv.DictReader(io.StringIO(out))}
        assert f'{float(rows["hutchinson"]["error_bound"]):.3e}' == line.split()[-1]
        assert rows["hutchinson"]["std_error"] == rows["exact-band"]["error_bound"] == ""

    @pytest.mark.parametrize("bad,message", BAD_OPTIONS, ids=BAD_OPTION_IDS)
    def test_bad_estimator_option_rejected(self, capsys, bad, message):
        code, out, err = run_cli(capsys, "estimate", "--gen", "gmrf:10:-0.2",
                                 "--method", "hutchinson", *bad)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_warning_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--gen", "gmrf:12:-0.22",
                               "--method", "leja-hutchpp", "--queries", "6",
                               "--tol", "1e-12", "--max-degree", "2")
        assert code == 2
        result = json.loads(out)
        assert result["report"]["warnings"]

    def test_deterministic_repeats(self, capsys):
        args = ("estimate", "--gen", "gmrf:14:-0.2", "--method", "leja-hutchpp",
                "--queries", "9", "--seed", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert json.loads(out1)["report"]["estimate"] == \
            json.loads(out2)["report"]["estimate"]

    @pytest.mark.parametrize("n,dense", [(200, True), (4001, False)],
                             ids=["within-dense-cap", "above-dense-cap"])
    def test_with_exact_on_a_file(self, capsys, tmp_path, n, dense):
        # a file that is not a lattice is checked by banded Cholesky at its own
        # bandwidth, whatever its size; within the dense test oracle's cap,
        # against that oracle too
        path = tmp_path / "penta.mtx"
        Q = gen_pentadiagonal(n, seed=0)
        write_matrix_market(Q, path)
        code, out, _ = run_cli(capsys, "estimate", "--matrix", str(path),
                               "--method", "leja-hutchpp", "--with-exact")
        assert code == 0
        exact = json.loads(out)["exact"]
        assert exact["oracle"] == "band-cholesky"
        assert exact["value"] == band_logdet_cholesky(Q, 2)
        assert exact["rel_err"] < 5e-2
        if dense:
            full = Q.to_scipy().toarray()
            assert exact["value"] == pytest.approx(dense_logdet_cholesky(full), rel=1e-12)

    def test_with_exact_on_a_lattice_file(self, capsys, tmp_path):
        # the reference is read off Q, so a lattice file gets its closed form
        path = tmp_path / "lattice.mtx"
        write_matrix_market(gen_gmrf_grid(30, -0.22), path)
        code, out, _ = run_cli(capsys, "estimate", "--matrix", str(path),
                               "--method", "hutchinson", "--with-exact")
        assert code == 0
        exact = json.loads(out)["exact"]
        assert (exact["oracle"], exact["value"]) == \
            ("lattice-analytic", gmrf_grid_logdet_analytic(30, -0.22))

    def test_with_exact_null_where_the_band_oracle_refuses(self, capsys, tmp_path):
        path = tmp_path / "corner.mtx"
        write_matrix_market(corner_pair_matrix(20_000), path)
        code, out, _ = run_cli(capsys, "estimate", "--matrix", str(path),
                               "--method", "hutchinson", "--with-exact")
        assert code == 0
        assert json.loads(out)["exact"] is None

    def test_table_shows_exact_and_warnings(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--gen", "gmrf:12:-0.22",
                               "--method", "hutchinson", "--queries", "3",
                               "--max-degree", "2", "--tol", "1e-12",
                               "--format", "table", "--with-exact")
        assert code == 2
        lines = out.splitlines()
        exact = gmrf_grid_logdet_analytic(12, -0.22)
        assert f"exact           {exact:.6f} (lattice-analytic)" in lines
        (line,) = [ln for ln in lines if ln.startswith("rel error")]
        assert float(line.split()[-1]) > 0
        warnings = [ln for ln in lines if ln.startswith("warning")]
        assert [w.split()[1:4] for w in warnings] == [
            ["probe", "action", f"{j}:"] for j in range(3)]
        assert all("not converged at degree 2" in w for w in warnings)

    @pytest.mark.parametrize("spec,message", [
        ("pentadiagonal:10:3", "expected pentadiagonal:N"),
        ("pentadiagonal", "expected pentadiagonal:N"),
        ("gmrf:8", "expected gmrf:G:THETA"),
        ("gmrf:8:-0.2:1", "expected gmrf:G:THETA"),
    ], ids=["penta-extra", "penta-missing", "gmrf-missing", "gmrf-extra"])
    def test_gen_spec_arity(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "estimate", "--gen", spec, "--method", "slq")
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_bad_gen_spec(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--gen", "hexadiagonal:50",
                               "--method", "slq")
        assert code == 1 and "unknown generator" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--matrix", "/no/such.mtx",
                               "--method", "slq")
        assert code == 1

    def test_asymmetric_file_refused(self, capsys, tmp_path):
        path = tmp_path / "asym.mtx"
        path.write_text(ASYMMETRIC_MTX)
        code, out, err = run_cli(capsys, "estimate", "--matrix", str(path),
                                 "--method", "exact-band")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: matrix is not symmetric")

    @pytest.mark.parametrize("method", METHODS)
    def test_empty_file_refused(self, capsys, tmp_path, method):
        # a 0 x 0 matrix is refused on load, before any method runs
        path = tmp_path / "empty.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n0 0 0\n")
        code, out, err = run_cli(capsys, "estimate", "--matrix", str(path),
                                 "--method", method)
        assert code == 1 and out == ""
        assert err == "error: matrix is empty: n = 0, expected at least 1\n"

    def test_usage_error_is_code_one(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--method", "slq")
        assert code == 1

    def test_floored_gershgorin_takes_lanczos_route(self, capsys, tmp_path):
        # Gershgorin's circles cross zero on this matrix (kappa = 100)
        path = tmp_path / "spd.mtx"
        write_matrix_market(random_spd(0, n=200, kappa=100.0)[0], path)
        code, out, _ = run_cli(capsys, "estimate", "--matrix", str(path),
                               "--method", "leja-hutchpp")
        assert code == 0
        assert json.loads(out)["report"]["enclosure"] == "lanczos"

    def test_indefinite_matrix_refused(self, capsys, tmp_path):
        path = tmp_path / "indefinite.mtx"
        write_matrix_market(indefinite_matrix(0), path)
        code, out, err = run_cli(capsys, "estimate", "--matrix", str(path),
                                 "--method", "leja-hutchpp")
        assert code == 1 and out == ""
        assert err.startswith("error: matrix is not positive definite")

    def test_cg_failure_is_an_error(self, capsys, tmp_path):
        # kappa = 1e12: the shift-invert CG stops short of its tolerance
        path = tmp_path / "spd.mtx"
        write_matrix_market(random_spd(0, n=300, kappa=1e12)[0], path)
        code, out, err = run_cli(capsys, "estimate", "--matrix", str(path),
                                 "--method", "leja-hutchpp")
        assert code == 1 and out == ""
        assert err.startswith("error: CG did not converge")


class TestGmrfLikelihood:
    def test_scan_rows_and_argmax_shape(self):
        thetas = [-0.24, -0.22, -0.20]
        out = gmrf_likelihood_scan(10, -0.22, thetas, seed=0, m_vec=9)
        assert [r["theta"] for r in out["rows"]] == thetas
        for r in out["rows"]:
            assert r["loglik"] is not None and r["quadform"] is not None

    def test_logdet_column_vs_analytic(self):
        # a generous query budget on a grid large enough for the noise floor
        # keeps the column inside 1% of the oracle value at each theta
        thetas = [-0.24, -0.22, -0.20]
        out = gmrf_likelihood_scan(100, -0.22, thetas, seed=2, m_vec=600)
        for r in out["rows"]:
            exact = gmrf_grid_logdet_analytic(100, r["theta"])
            assert abs(r["logdet_est"] - exact) <= 1e-2 * abs(exact)

    def test_theta_zero_contributes_zero_logdet(self):
        out = gmrf_likelihood_scan(8, -0.1, [0.0], seed=0, m_vec=6)
        assert out["rows"][0]["logdet_est"] == 0.0

    def test_nan_theta_refused(self):
        for theta_true, thetas in ((-0.2, [math.nan]), (math.nan, [-0.2])):
            with pytest.raises(ValueError, match="1/4"):
                gmrf_likelihood_scan(10, theta_true, thetas)

    def test_grid_side_600_is_sampled(self):
        # the sine transform samples any grid side, here n = 360,000
        out = gmrf_likelihood_scan(600, -0.22, [-0.22], m_vec=3)
        n = 600 * 600
        # x' Q x of a draw with precision Q is chi-squared with n degrees
        assert abs(out["rows"][0]["quadform"] - n) < 6 * math.sqrt(2 * n)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_refused_before_the_draw(self, monkeypatch, seed):
        # estimate's refusal, not numpy's words from the sampler's draw
        monkeypatch.setattr(likelihood, "_sample_field", None)
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be a non-negative integer, got {seed!r}")):
            gmrf_likelihood_scan(10, -0.22, [-0.22], seed=seed)

    def test_grid_side_one_refused_before_the_draw(self, monkeypatch):
        monkeypatch.setattr(likelihood, "_sample_field", None)
        with pytest.raises(ValueError, match="grid side must be at least 2"):
            gmrf_likelihood_scan(1, -0.22, [-0.22])

    def test_sample_gives_back_its_draw(self):
        # Q = S diag(lam) S, so S(Q x) / sqrt(lam) is the standard normal draw
        g, theta, seed = 10, -0.22, 3
        x = _sample_field(g, theta, seed)
        qx = (gen_gmrf_grid(g, theta).to_scipy() @ x).reshape(g, g)
        back = dstn(qx, type=1, norm="ortho") / np.sqrt(lattice_eigenvalues(g, theta))
        z = np.random.default_rng(seed).standard_normal((g, g))
        np.testing.assert_allclose(back, z, rtol=0, atol=1e-12)

    def test_cli_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "gmrf-likelihood", "--grid-side", "8",
                               "--theta-true", "-0.22", "--theta-start", "-0.24",
                               "--theta-stop", "-0.20", "--theta-step", "0.02",
                               "--queries", "6", "--seed", "0")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert {"theta", "loglik", "logdet_est", "quadform"} <= set(rows[0])
        float(rows[0]["loglik"])

    def test_cli_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "gmrf-likelihood", "--grid-side", "8",
                               "--theta-true", "-0.22", "--theta-start", "-0.24",
                               "--theta-stop", "-0.20", "--theta-step", "0.02",
                               "--queries", "6", "--seed", "0", "--format", "json")
        assert code == 0
        result = json.loads(out)
        expected = gmrf_likelihood_scan(8, -0.22, _theta_grid(-0.24, -0.20, 0.02),
                                        seed=0, m_vec=6)
        assert result == json.loads(json.dumps(expected))

    def test_zero_theta_step_rejected(self, capsys):
        code, out, err = run_cli(capsys, "gmrf-likelihood", "--grid-side", "8",
                                 "--theta-true", "-0.22", "--theta-start", "-0.24",
                                 "--theta-stop", "-0.20", "--theta-step", "0",
                                 "--queries", "6")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--theta-step" in err

    @pytest.mark.parametrize("start,stop,step", [("-0.24", "-0.20", "-0.02"),
                                                 ("-0.20", "-0.24", "0.02")],
                             ids=["negative-step", "stop-below-start"])
    def test_empty_theta_grid_rejected(self, capsys, start, stop, step):
        code, out, err = run_cli(capsys, "gmrf-likelihood", "--grid-side", "8",
                                 "--theta-true", "-0.22", "--theta-start", start,
                                 "--theta-stop", stop, "--theta-step", step,
                                 "--queries", "6")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "empty theta grid" in err

    @pytest.mark.parametrize("start,stop,step,points", [
        ("-0.24", "-0.20", "1e-300", "4e+298"),
        ("0.0", "0.1", "1e-5", "10001"),
    ], ids=["tiny-step", "10001-points"])
    def test_oversized_theta_grid_rejected(self, capsys, start, stop, step, points):
        code, out, err = run_cli(capsys, "gmrf-likelihood", "--grid-side", "8",
                                 "--theta-true", "-0.22", "--theta-start", start,
                                 "--theta-stop", stop, "--theta-step", step,
                                 "--queries", "6")
        assert code == 1 and out == ""
        assert err == (f"error: --theta-step {float(step)} gives a grid of {points} "
                       f"points; at most 10000 are allowed\n")

    def test_largest_theta_grid(self):
        assert len(_theta_grid(0.0, 0.09999, 1e-5)) == 10_000

    @pytest.mark.parametrize("start,stop,step,grid", [
        (-0.24, -0.20, 0.02, [-0.24, -0.22, -0.20]),
        (-0.24, -0.14, 0.06, [-0.24, -0.18]),
        (0.1, 0.2, 0.15, [0.1]),
    ], ids=["inclusive-stop", "stop-between-points", "step-past-stop"])
    def test_theta_grid_stops_at_stop(self, start, stop, step, grid):
        assert _theta_grid(start, stop, step) == pytest.approx(grid, abs=1e-12)

    @pytest.mark.parametrize("bad,message", BAD_OPTIONS, ids=BAD_OPTION_IDS)
    def test_bad_estimator_option_rejected(self, capsys, bad, message):
        code, out, err = run_cli(capsys, "gmrf-likelihood", "--grid-side", "8",
                                 "--theta-true", "-0.22", "--theta-start", "-0.24",
                                 "--theta-stop", "-0.20", "--theta-step", "0.02",
                                 "--queries", "6", *bad)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_invalid_theta_rejected(self, capsys):
        code, _, err = run_cli(capsys, "gmrf-likelihood", "--grid-side", "8",
                               "--theta-true", "-0.22", "--theta-start", "-0.26",
                               "--theta-stop", "-0.20", "--queries", "6")
        assert code == 1 and "1/4" in err

    @pytest.mark.parametrize("flag", ["--probes", "--slq-degree", "--no-sample"])
    def test_slq_flags_refused(self, capsys, flag):
        # the scan runs no SLQ and always draws its sample, so it has no SLQ
        # flags and no --no-sample to ignore
        code, out, _ = run_cli(capsys, "gmrf-likelihood", "--grid-side", "8",
                               "--theta-true", "-0.22", "--theta-start", "-0.24",
                               "--theta-stop", "-0.20", flag, "5")
        assert code == 1 and out == ""


class TestBench:
    def test_row_contract(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--gen", "pentadiagonal:300",
                               "--methods", "leja-hutchpp,slq", "--reps", "2",
                               "--queries", "9", "--slq-degree", "15",
                               "--probes", "10", "--seed", "4")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4        # 1 matrix x 2 methods x 2 reps
        seeds = {(r["method"], r["seed"]) for r in rows}
        assert len(seeds) == 4       # distinct seeds per repetition
        for r in rows:
            assert r["error"] == ""
            assert float(r["rel_err"]) < 0.05
            assert float(r["wall_time"]) >= 0
            assert float(r["std_error"]) > 0

    @pytest.mark.parametrize("bad,message", BAD_OPTIONS, ids=BAD_OPTION_IDS)
    def test_bad_estimator_option_rejected(self, capsys, bad, message):
        code, out, err = run_cli(capsys, "bench", "--gen", "gmrf:10:-0.2",
                                 "--methods", "hutchinson", *bad)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_json_rows(self, capsys):
        args = ("bench", "--gen", "gmrf:10:-0.2", "--methods", "hutchinson,exact-band",
                "--queries", "6", "--seed", "2")
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        _, csv_out, _ = run_cli(capsys, *args)
        table = list(csv.DictReader(io.StringIO(csv_out)))
        assert [list(r) for r in rows] == [list(r) for r in table]
        for row, line in zip(rows, table):
            for key in ("matrix", "method", "estimate", "exact", "error_bound", "error"):
                assert line[key] == ("" if row[key] is None else str(row[key]))
        assert rows[1]["estimate"] == pytest.approx(rows[0]["exact"], rel=1e-12)

    def test_rows_agree_with_their_reports(self, capsys):
        # at tol 1e-3 the pentadiagonal matrix takes the exact trace, with an
        # error bound, and degree 4 leaves the lattice's actions unconverged
        options = {"queries": 9, "probes": 10, "slq_degree": 15, "tol": 1e-3,
                   "max_degree": 4}
        flags = [f"--{name.replace('_', '-')}={value}" for name, value in options.items()]
        methods = ("leja-hutchpp", "slq", "exact-band")
        args = ("bench", "--gen", "gmrf:10:-0.2", "--gen", "pentadiagonal:2000",
                "--methods", ",".join(methods), "--reps", "2", "--seed", "5", *flags)
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 2
        rows = json.loads(out)
        _, csv_out, _ = run_cli(capsys, *args)
        assert csv_out.splitlines()[0] == ",".join(BENCH_COLUMNS)
        penta = gen_pentadiagonal(2000, seed=5)
        corpus = {"gmrf:10:-0.2": (gen_gmrf_grid(10, -0.2),
                                   gmrf_grid_logdet_analytic(10, -0.2)),
                  "pentadiagonal:2000": (penta, band_logdet_cholesky(penta, 2))}
        assert [(r["matrix"], r["method"], r["seed"]) for r in rows] == [
            (label, m, 5 + rep) for label in corpus for m in methods for rep in (0, 1)]
        for row in rows:
            assert tuple(row) == BENCH_COLUMNS
            Q, exact = corpus[row["matrix"]]
            report = estimate(Q, row["method"], seed=row["seed"], **options)
            for key in ("estimate", "std_error", "error_bound"):
                assert row[key] == getattr(report, key)
            assert row["warnings"] == len(report.warnings)
            assert row["exact"] == exact and row["error"] is None
            assert row["rel_err"] == abs(row["estimate"] - exact) / abs(exact)
        # every copied field is exercised: a standard error, an error bound
        # and warnings each appear, and are absent elsewhere
        for key in ("std_error", "error_bound", "warnings"):
            assert len({bool(row[key]) for row in rows}) == 2

    def test_no_corpus_rejected(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--methods", "hutchinson")
        assert code == 1 and out == ""
        assert err == "error: bench needs at least one --gen or --matrix\n"

    def test_unknown_method_rejected(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--gen", "gmrf:10:-0.2",
                                 "--methods", "hutchinson,cg")
        assert code == 1 and out == ""
        assert err.startswith("error: unknown method 'cg'; choose from")

    def test_methods_checked_before_options(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--gen", "gmrf:10:-0.2",
                                 "--methods", "hutchinson,cg", "--tol", "0")
        assert code == 1 and out == ""
        assert err.startswith("error: unknown method 'cg'; choose from")

    def test_failed_cell_becomes_error_row(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--gen", "pentadiagonal:60",
                               "--methods", "exact-analytic,exact-band",
                               "--reps", "1")
        assert code == 2             # error rows surface as warnings
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        by_method = {r["method"]: r for r in rows}
        assert by_method["exact-analytic"]["error"] != ""
        assert by_method["exact-band"]["error"] == ""

    def test_zero_exact_value_is_not_an_error(self, capsys):
        # theta = 0 is the identity: the exact value and both estimates are 0
        code, out, _ = run_cli(capsys, "bench", "--gen", "gmrf:8:0",
                               "--methods", "hutchinson,exact-analytic")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        for r in rows:
            assert r["error"] == ""
            assert float(r["estimate"]) == 0.0 and float(r["rel_err"]) == 0.0

    @pytest.mark.parametrize("methods,reps", [("hutchinson", "0"), (",", "1")],
                             ids=["zero-reps", "no-methods"])
    def test_empty_bench_rejected(self, capsys, methods, reps):
        code, out, err = run_cli(capsys, "bench", "--gen", "gmrf:8:-0.2",
                                 "--methods", methods, "--reps", reps)
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("source", [("--gen", "gmrf:8:-0.2"), ()],
                             ids=["with-corpus", "no-corpus"])
    def test_options_checked_before_corpus_and_reps(self, capsys, source):
        code, out, err = run_cli(capsys, "bench", *source, "--methods", "hutchinson",
                                 "--tol", "0", "--reps", "0")
        assert code == 1 and out == ""
        assert err == "error: --tol must be positive\n"

    @pytest.mark.parametrize("bad_file", ["/no/such.mtx", "asym.mtx"],
                             ids=["missing", "asymmetric"])
    def test_bad_file_stops_before_any_row(self, capsys, tmp_path, bad_file):
        (tmp_path / "asym.mtx").write_text(ASYMMETRIC_MTX)
        code, out, err = run_cli(capsys, "bench", "--gen", "gmrf:8:-0.2",
                                 "--matrix", str(tmp_path / bad_file),
                                 "--methods", "exact-band")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_empty_exact_column_where_the_band_oracle_refuses(self, capsys, tmp_path):
        path = tmp_path / "corner.mtx"
        write_matrix_market(corner_pair_matrix(20_000), path)
        code, out, _ = run_cli(capsys, "bench", "--matrix", str(path),
                               "--methods", "hutchinson,exact-band")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 2 and [r["method"] for r in rows] == ["hutchinson", "exact-band"]
        assert [(r["exact"], r["rel_err"]) for r in rows] == [("", "")] * 2
        assert rows[0]["error"] == "" and "too wide-banded" in rows[1]["error"]

    def test_exact_column_of_a_lattice_file(self, capsys, tmp_path):
        path = tmp_path / "lattice.mtx"
        write_matrix_market(gen_gmrf_grid(30, -0.22), path)
        code, out, _ = run_cli(capsys, "bench", "--matrix", str(path),
                               "--methods", "hutchinson", "--queries", "6")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and rows[0]["error"] == ""
        assert float(rows[0]["exact"]) == gmrf_grid_logdet_analytic(30, -0.22)

    def test_exact_column_feasibility_gate(self, capsys):
        # a generated lattice's exact column is its closed form
        code, out, _ = run_cli(capsys, "bench", "--gen", "gmrf:12:-0.2",
                               "--methods", "hutchinson", "--reps", "1",
                               "--queries", "6")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["exact"] != ""
        assert float(rows[0]["exact"]) == pytest.approx(
            gmrf_grid_logdet_analytic(12, -0.2))


class TestGen:
    def test_confirms_the_spec_as_given(self, capsys, tmp_path):
        out_path = tmp_path / "m.mtx"
        code, out, _ = run_cli(capsys, "gen", "--gen", "gmrf:8.0:-0.2", "--out",
                               str(out_path))
        assert code == 0
        assert out == f"wrote gmrf:8.0:-0.2 to {out_path} (n=64, nnz=288)\n"

    @pytest.mark.parametrize("spec,n", [("pentadiagonal:1e3", 1000),
                                        ("gmrf:8.0:-0.2", 64)])
    def test_integral_spelling_accepted(self, capsys, tmp_path, spec, n):
        out_path = tmp_path / "m.mtx"
        code, _, _ = run_cli(capsys, "gen", "--gen", spec, "--out", str(out_path))
        assert code == 0 and load_matrix_market(out_path).n == n

    def test_write_and_reload(self, capsys, tmp_path):
        out_path = tmp_path / "m.mtx"
        code, out, _ = run_cli(capsys, "gen", "--gen", "pentadiagonal:50",
                               "--seed", "9", "--out", str(out_path))
        assert code == 0
        Q = load_matrix_market(out_path)
        R = gen_pentadiagonal(50, seed=9)
        assert np.array_equal(Q.values, R.values)
        assert np.array_equal(Q.col_idx, R.col_idx)

    @pytest.mark.parametrize("spec,seed", [("pentadiagonal:10", "-1"),
                                           ("gmrf:4:-0.2", "-3")])
    def test_negative_seed_refused(self, capsys, tmp_path, spec, seed):
        # the library's one seed check, whether or not the generator draws
        out_path = tmp_path / "m.mtx"
        code, out, err = run_cli(capsys, "gen", "--gen", spec, "--seed", seed,
                                 "--out", str(out_path))
        assert code == 1 and out == ""
        assert err == f"error: seed must be a non-negative integer, got {seed}\n"
        assert not out_path.exists()


@pytest.mark.parametrize("argv,field", [
    (["estimate", "--gen", "pentadiagonal:inf", "--method", "slq"], "pentadiagonal:N"),
    (["estimate", "--gen", "gmrf:nan:-0.2", "--method", "slq"], "gmrf:G"),
    (["gen", "--gen", "gmrf:1e400:0.1", "--out", "m.mtx"], "gmrf:G"),
    (["gen", "--gen", "gmrf:8:nan", "--out", "m.mtx"], "gmrf:THETA"),
    (["gmrf-likelihood", "--theta-start", "inf", "--theta-stop", "-0.20"],
     "--theta-start"),
    (["gmrf-likelihood", "--theta-start", "-0.24", "--theta-stop", "inf"],
     "--theta-stop"),
    (["gmrf-likelihood", "--theta-start", "-0.24", "--theta-stop", "-0.20",
      "--theta-step", "nan"], "--theta-step"),
    (["gmrf-likelihood", "--theta-start", "-0.24", "--theta-stop", "-0.20",
      "--theta-true", "nan"], "--theta-true"),
], ids=["penta-n-inf", "gmrf-g-nan", "gen-g-overflow", "gen-theta-nan",
        "theta-start-inf", "theta-stop-inf", "theta-step-nan", "theta-true-nan"])
def test_non_finite_number_refused(capsys, tmp_path, monkeypatch, argv, field):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "gmrf-likelihood":
        argv = argv + ["--grid-side", "8", "--queries", "6"]
        if "--theta-true" not in argv:
            argv += ["--theta-true", "-0.22"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {field} must be finite")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "m.mtx").exists()


@pytest.mark.parametrize("argv,message", [
    (["estimate", "--gen", "gmrf:10.7:-0.2", "--method", "hutchinson"],
     "gmrf:G must be an integer, got 10.7"),
    (["estimate", "--gen", "pentadiagonal:1000.9", "--method", "slq"],
     "pentadiagonal:N must be an integer, got 1000.9"),
    (["bench", "--gen", "gmrf:8.5:-0.2", "--methods", "hutchinson"],
     "gmrf:G must be an integer, got 8.5"),
    (["bench", "--gen", "pentadiagonal:300", "--gen", "pentadiagonal:2.55e1",
      "--methods", "slq"], "pentadiagonal:N must be an integer, got 25.5"),
    (["gen", "--gen", "pentadiagonal:1e-3", "--out", "m.mtx"],
     "pentadiagonal:N must be an integer, got 0.001"),
    (["gen", "--gen", "gmrf:4.5:0.1", "--out", "m.mtx"],
     "gmrf:G must be an integer, got 4.5"),
], ids=["estimate-gmrf", "estimate-penta", "bench-gmrf", "bench-second-spec",
        "gen-penta", "gen-gmrf"])
def test_non_integral_size_refused(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "m.mtx").exists()


@pytest.mark.parametrize("argv,names", [
    (("estimate", "--gen", "gmrf:8:-0.2", "--method", "slq"), None),
    (("gmrf-likelihood", "--grid-side", "8", "--theta-true", "-0.2",
      "--theta-start", "-0.2", "--theta-stop", "-0.2"),
     ("queries", "tol", "seed", "max_degree")),
    (("bench", "--methods", "slq"), None),
], ids=["estimate", "gmrf-likelihood", "bench"])
def test_estimator_defaults_are_estimates_own(argv, names):
    defaults = dict(estimate.__kwdefaults__)
    if names is not None:       # the scan runs no SLQ and has no SLQ flags
        defaults = {name: defaults[name] for name in names}
    args = build_parser().parse_args(argv)
    assert {name: getattr(args, name) for name in defaults} == defaults


def test_scan_defaults_are_estimates_own():
    defaults = estimate.__kwdefaults__
    params = inspect.signature(gmrf_likelihood_scan).parameters
    scan = {name: params[name].default for name in ("seed", "m_vec", "tol", "max_degree")}
    assert scan == {"seed": defaults["seed"], "m_vec": defaults["queries"],
                    "tol": defaults["tol"], "max_degree": defaults["max_degree"]}
