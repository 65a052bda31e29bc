import csv
import io
import json

import numpy as np
import pytest

from lejadet import LogDetReport, band_logdet_cholesky, gen_pentadiagonal
from lejadet import (gmrf_grid_logdet_analytic, gmrf_likelihood_scan,
                     load_matrix_market)
from lejadet.cli import main

# the JSON keys of `estimate`; an estimator run and an exact run share them
RESULT_KEYS = {"config", "matrix", "report", "exact"}
CONFIG_KEYS = {"method", "matrix", "gen", "queries", "probes", "slq_degree", "tol",
               "s_val", "bounds", "seed", "format", "max_degree", "with_exact"}
REPORT_KEYS = {"method", "estimate", "trace_estimate", "n_log_sigma", "sigma",
               "queries", "degrees", "seed", "wall_time", "matvecs_total",
               "warnings", "converged"}


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
        rep = LogDetReport.from_dict(result["report"])
        assert rep.to_dict() == result["report"]
        # config block embeds every resolved value, defaults included
        assert result["config"]["seed"] == 1
        assert result["config"]["tol"] == 1e-7
        assert result["config"]["bounds"] == "gershgorin"
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
            assert set(result["config"]) == CONFIG_KEYS
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

    def test_bad_gen_spec(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--gen", "hexadiagonal:50",
                               "--method", "slq")
        assert code == 1 and "unknown generator" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--matrix", "/no/such.mtx",
                               "--method", "slq")
        assert code == 1

    def test_usage_error_is_code_one(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--method", "slq")
        assert code == 1

    def test_lanczos_bounds_route(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--gen", "gmrf:15:-0.2",
                               "--method", "leja-hutchpp", "--queries", "6",
                               "--bounds", "lanczos")
        assert code == 0
        result = json.loads(out)
        assert result["config"]["bounds"] == "lanczos"

    def test_s_val_choices(self, capsys):
        # half-max sits on the edge of the Taylor convergence condition, so
        # its run legitimately carries a truncation warning (exit code 2)
        for sval, codes in (("center", {0}), ("half-max", {0, 2}), ("30.5", {0})):
            code, out, _ = run_cli(capsys, "estimate", "--gen", "pentadiagonal:40",
                                   "--method", "leja-hutchpp", "--queries", "6",
                                   "--s-val", sval)
            assert code in codes, sval


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
        out = gmrf_likelihood_scan(100, -0.22, thetas, seed=2, m_vec=600,
                                   sample=False)
        for r in out["rows"]:
            exact = gmrf_grid_logdet_analytic(100, r["theta"])
            assert abs(r["logdet_est"] - exact) <= 1e-2 * abs(exact)

    def test_theta_zero_contributes_zero_logdet(self):
        out = gmrf_likelihood_scan(8, -0.1, [0.0], seed=0, m_vec=6)
        assert out["rows"][0]["logdet_est"] == 0.0

    def test_sampling_cap(self):
        with pytest.raises(ValueError, match="grid side"):
            gmrf_likelihood_scan(65, -0.22, [-0.22], sample=True)

    def test_no_sample_mode(self):
        out = gmrf_likelihood_scan(70, -0.22, [-0.22], sample=False, m_vec=6)
        row = out["rows"][0]
        assert row["loglik"] is None and row["quadform"] is None
        assert row["logdet_est"] is not None

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

    def test_invalid_theta_rejected(self, capsys):
        code, _, err = run_cli(capsys, "gmrf-likelihood", "--grid-side", "8",
                               "--theta-true", "-0.22", "--theta-start", "-0.26",
                               "--theta-stop", "-0.20", "--queries", "6")
        assert code == 1 and "1/4" in err


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

    def test_exact_column_feasibility_gate(self, capsys):
        # files above the dense cap would have no exact column; generators
        # always do (band/analytic oracles)
        code, out, _ = run_cli(capsys, "bench", "--gen", "gmrf:12:-0.2",
                               "--methods", "hutchinson", "--reps", "1",
                               "--queries", "6")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["exact"] != ""
        assert float(rows[0]["exact"]) == pytest.approx(
            gmrf_grid_logdet_analytic(12, -0.2))


class TestGen:
    def test_write_and_reload(self, capsys, tmp_path):
        out_path = tmp_path / "m.mtx"
        code, out, _ = run_cli(capsys, "gen", "--gen", "pentadiagonal:50",
                               "--seed", "9", "--out", str(out_path))
        assert code == 0
        Q = load_matrix_market(out_path)
        R = gen_pentadiagonal(50, seed=9)
        assert np.array_equal(Q.values, R.values)
        assert np.array_equal(Q.col_idx, R.col_idx)
