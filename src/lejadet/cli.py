"""Command-line front end: estimate log-determinants, benchmark, scan likelihoods.

Exit codes: 0 on success, 2 on success with estimator warnings (e.g. an
action that stopped at the degree cap), 1 on failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg

from .logdet import LogDetReport, hutchinson_logdet, hutchpp_logdet, slq_logdet
from .oracle import (DENSE_CAP, band_logdet_cholesky, dense_logdet_cholesky,
                     gmrf_grid_logdet_analytic)
from .sparse import (SparseMatrixCSR, gen_gmrf_grid, gen_pentadiagonal,
                     load_matrix_market, write_matrix_market)
from .spectral import estimate_interval

__all__ = ["main", "RunConfig", "gmrf_likelihood_scan"]

ESTIMATORS = ("leja-hutchpp", "hutchinson", "slq")
EXACT_METHODS = ("exact-dense", "exact-band", "exact-analytic")
METHODS = ESTIMATORS + EXACT_METHODS
SAMPLING_GRID_CAP = 64


@dataclass
class RunConfig:
    """Fully resolved run parameters; embedded in every report for replay."""

    method: str
    matrix: str | None = None
    gen: str | None = None
    queries: int = 12
    probes: int = 30
    slq_degree: int = 40
    tol: float = 1e-7
    s_val: str = "center"
    bounds: str = "gershgorin"
    seed: int = 0
    format: str = "json"
    deterministic: bool = True
    max_degree: int = 400
    with_exact: bool = False

    def validate(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if (self.matrix is None) == (self.gen is None):
            raise ValueError("exactly one matrix source is required "
                             "(--matrix PATH or --gen SPEC)")
        if self.method == "leja-hutchpp" and self.queries < 3:
            raise ValueError("leja-hutchpp needs --queries >= 3")
        if self.method == "hutchinson" and self.queries < 1:
            raise ValueError("hutchinson needs --queries >= 1")
        if self.method == "slq" and (self.slq_degree < 1 or self.probes < 1):
            raise ValueError("slq needs --slq-degree >= 1 and --probes >= 1")
        if self.bounds not in ("gershgorin", "lanczos"):
            raise ValueError("--bounds must be gershgorin or lanczos")
        if self.s_val not in ("center", "half-max"):
            try:
                float(self.s_val)
            except ValueError:
                raise ValueError("--s-val must be 'center', 'half-max', or a number")
        if self.tol <= 0:
            raise ValueError("--tol must be positive")

    @property
    def scaling(self):
        return self.s_val if self.s_val in ("center", "half-max") else float(self.s_val)

    @property
    def reduction(self):
        return "sequential" if self.deterministic else "parallel"


def parse_gen_spec(spec: str, seed: int):
    """Generator grammar: 'pentadiagonal:N' or 'gmrf:G:THETA'."""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "pentadiagonal":
        if len(parts) != 2:
            raise ValueError("expected pentadiagonal:N")
        n = int(float(parts[1]))
        return gen_pentadiagonal(n, seed=seed), {"kind": kind, "n": n}
    if kind == "gmrf":
        if len(parts) != 3:
            raise ValueError("expected gmrf:G:THETA")
        g = int(float(parts[1]))
        theta = float(parts[2])
        return gen_gmrf_grid(g, theta), {"kind": kind, "g": g, "theta": theta}
    raise ValueError(f"unknown generator {kind!r}; use pentadiagonal:N or gmrf:G:THETA")


def _get_matrix(cfg: RunConfig):
    if cfg.matrix is not None:
        return load_matrix_market(cfg.matrix), {"kind": "file", "path": cfg.matrix}
    return parse_gen_spec(cfg.gen, cfg.seed)


def _exact_logdet(Q: SparseMatrixCSR, meta: dict, how: str) -> tuple[float, str]:
    if how == "exact-dense":
        return dense_logdet_cholesky(Q.to_dense(max_n=DENSE_CAP)), "dense-cholesky"
    if how == "exact-band":
        return band_logdet_cholesky(Q, Q.bandwidth()), "band-cholesky"
    if how == "exact-analytic":
        if meta.get("kind") != "gmrf":
            raise ValueError("the analytic oracle applies only to --gen gmrf:G:THETA")
        return gmrf_grid_logdet_analytic(meta["g"], meta["theta"]), "lattice-analytic"
    raise ValueError(f"unknown exact method {how!r}")


def _best_oracle(Q: SparseMatrixCSR, meta: dict):
    """Feasible exact reference for this matrix, or None."""
    kind = meta.get("kind")
    if kind == "gmrf":
        return "exact-analytic"
    if kind == "pentadiagonal":
        return "exact-band"
    if Q.n <= DENSE_CAP:
        return "exact-dense"
    return None


def _exact_report(cfg, value, elapsed):
    return LogDetReport(
        method=cfg.method, estimate=value, trace_estimate=value,
        n_log_sigma=0.0, sigma=1.0, queries=0,
        degrees={"min": 0, "median": 0.0, "max": 0}, seed=cfg.seed,
        wall_time=elapsed, matvecs_total=0, reduction="sequential",
        warnings=[], converged=True)


def run_estimate(cfg: RunConfig) -> dict:
    """Load or generate the matrix, run the configured method, build the result.

    Wall time for the iterative estimators includes the spectral-bound
    estimation, which is part of the method's cost.
    """
    cfg.validate()
    Q, meta = _get_matrix(cfg)
    if cfg.method in EXACT_METHODS:
        t0 = time.perf_counter()
        value, _ = _exact_logdet(Q, meta, cfg.method)
        report = _exact_report(cfg, value, time.perf_counter() - t0)
    else:
        report = _run_estimator(Q, cfg)
    result = {
        "config": asdict(cfg),
        "matrix": {"n": Q.n, "nnz": Q.nnz},
        "report": report.to_dict(),
        "exact": None,
    }
    if cfg.with_exact and cfg.method not in EXACT_METHODS:
        how = _best_oracle(Q, meta)
        if how is not None:
            value, oracle_name = _exact_logdet(Q, meta, how)
            rel = abs(report.estimate - value) / max(abs(value), 1e-300)
            result["exact"] = {"value": value, "rel_err": rel, "oracle": oracle_name}
    return result


def gmrf_likelihood_scan(g: int, theta_true: float, thetas, seed: int = 0,
                         m_vec: int = 12, tol: float = 1e-7, scaling="center",
                         max_degree: int = 400, sample: bool = True,
                         reduction: str = "sequential",
                         bounds_method: str = "gershgorin") -> dict:
    """Log-likelihood curve of a lattice field sample over a theta grid.

    Draws one sample x with precision Q(theta_true) by a dense Cholesky
    solve (grid side capped for feasibility), then for each theta evaluates

        loglik = (logdet_est(Q(theta)) - x' Q(theta) x - n log(2 pi)) / 2

    with the Leja/Hutch++ estimator for the log-determinant term.  One
    estimator seed is reused across the whole grid (common random numbers),
    so estimation noise shifts the curve smoothly instead of scrambling the
    argmax.  With ``sample=False`` only the log-determinant column is
    produced and the grid side is not capped.
    """
    thetas = [float(t) for t in thetas]
    for t in thetas + [theta_true]:
        if abs(t) >= 0.25:
            raise ValueError(f"|theta| must be below 1/4, got {t}")
    n = g * g
    x = None
    if sample:
        if g > SAMPLING_GRID_CAP:
            raise ValueError(
                f"sampling is limited to grid side {SAMPLING_GRID_CAP} "
                f"(dense Cholesky); rerun without sampling for the "
                f"log-determinant curve only")
        rng = np.random.default_rng(seed)
        q_true = gen_gmrf_grid(g, theta_true).to_dense(max_n=SAMPLING_GRID_CAP ** 2)
        chol = np.linalg.cholesky(q_true)
        z = rng.standard_normal(n)
        x = scipy.linalg.solve_triangular(chol.T, z, lower=False)
    rows = []
    warn_count = 0
    for theta in thetas:
        Q = gen_gmrf_grid(g, theta)
        bounds = estimate_interval(Q, method=bounds_method, seed=seed)
        report = hutchpp_logdet(Q, m_vec, action_tol=tol, seed=seed,
                                bounds=bounds, scaling=scaling,
                                max_degree=max_degree, reduction=reduction)
        warn_count += len(report.warnings)
        row = {"theta": theta, "logdet_est": report.estimate,
               "loglik": None, "quadform": None}
        if x is not None:
            quad = float(x @ (Q.to_scipy() @ x))
            row["quadform"] = quad
            row["loglik"] = 0.5 * (report.estimate - quad - n * math.log(2.0 * math.pi))
        rows.append(row)
    return {
        "config": {"g": g, "theta_true": theta_true, "thetas": thetas, "seed": seed,
                   "queries": m_vec, "tol": tol, "s_val": str(scaling),
                   "sample": sample},
        "rows": rows,
        "warnings": warn_count,
    }


def run_bench(gens, files, methods, reps, seed, cfg_defaults: RunConfig) -> list[dict]:
    """Per (matrix, method, repetition) rows; failures become error rows."""
    corpus = []
    for spec in gens:
        Q, meta = parse_gen_spec(spec, seed)
        corpus.append((spec, Q, meta))
    for path in files:
        corpus.append((path, load_matrix_market(path), {"kind": "file", "path": path}))
    rows = []
    for label, Q, meta in corpus:
        oracle_how = _best_oracle(Q, meta)
        exact = None
        if oracle_how is not None:
            try:
                exact, _ = _exact_logdet(Q, meta, oracle_how)
            except ValueError:
                exact = None
        for method in methods:
            for rep in range(reps):
                rep_seed = seed + rep
                row = {"matrix": label, "n": Q.n, "nnz": Q.nnz, "method": method,
                       "rep": rep, "seed": rep_seed, "estimate": None,
                       "exact": exact, "rel_err": None, "wall_time": None,
                       "warnings": 0, "error": None}
                try:
                    cfg = RunConfig(
                        method=method, queries=cfg_defaults.queries,
                        probes=cfg_defaults.probes, slq_degree=cfg_defaults.slq_degree,
                        tol=cfg_defaults.tol, s_val=cfg_defaults.s_val,
                        bounds=cfg_defaults.bounds, seed=rep_seed,
                        deterministic=cfg_defaults.deterministic,
                        max_degree=cfg_defaults.max_degree)
                    report = _bench_one(Q, meta, cfg)
                    row["estimate"] = report.estimate
                    row["wall_time"] = report.wall_time
                    row["warnings"] = len(report.warnings)
                    if exact is not None:
                        row["rel_err"] = abs(report.estimate - exact) / abs(exact)
                except Exception as exc:  # noqa: BLE001 - cell failures must not stop the run
                    row["error"] = str(exc)
                rows.append(row)
    return rows


def _run_estimator(Q, cfg: RunConfig) -> LogDetReport:
    """Dispatch to an estimator; wall time covers the spectral bounds too,
    which are part of the interpolation methods' cost (SLQ needs none)."""
    if cfg.method == "slq":
        return slq_logdet(Q, cfg.slq_degree, cfg.probes, seed=cfg.seed,
                          reduction=cfg.reduction)
    t0 = time.perf_counter()
    bounds = estimate_interval(Q, method=cfg.bounds, seed=cfg.seed)
    bounds_time = time.perf_counter() - t0
    if cfg.method == "leja-hutchpp":
        report = hutchpp_logdet(Q, cfg.queries, action_tol=cfg.tol, seed=cfg.seed,
                                bounds=bounds, scaling=cfg.scaling,
                                max_degree=cfg.max_degree, reduction=cfg.reduction)
    elif cfg.method == "hutchinson":
        report = hutchinson_logdet(Q, cfg.queries, action_tol=cfg.tol, seed=cfg.seed,
                                   bounds=bounds, scaling=cfg.scaling,
                                   max_degree=cfg.max_degree, reduction=cfg.reduction)
    else:
        raise ValueError(f"unknown method {cfg.method!r}")
    report.wall_time += bounds_time
    return report


def _bench_one(Q, meta, cfg: RunConfig) -> LogDetReport:
    if cfg.method in EXACT_METHODS:
        t0 = time.perf_counter()
        value, _ = _exact_logdet(Q, meta, cfg.method)
        return _exact_report(cfg, value, time.perf_counter() - t0)
    return _run_estimator(Q, cfg)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_estimate(result: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result, indent=2)
    if fmt == "table":
        rep = result["report"]
        lines = [
            f"method          {rep['method']}",
            f"n / nnz         {result['matrix']['n']} / {result['matrix']['nnz']}",
            f"estimate        {rep['estimate']:.6f}",
            f"  trace term    {rep['trace_estimate']:.6f}",
            f"  n log sigma   {rep['n_log_sigma']:.6f} (sigma={rep['sigma']:.6g})",
            f"queries         {rep['queries']}",
            f"degrees         min {rep['degrees']['min']} / median {rep['degrees']['median']} / max {rep['degrees']['max']}",
            f"matvecs         {rep['matvecs_total']}",
            f"wall time       {rep['wall_time']:.3f} s",
            f"seed            {rep['seed']}",
        ]
        if result["exact"] is not None:
            ex = result["exact"]
            lines.append(f"exact           {ex['value']:.6f} ({ex['oracle']})")
            lines.append(f"rel error       {ex['rel_err']:.3e}")
        for w in rep["warnings"]:
            lines.append(f"warning         {w}")
        return "\n".join(lines)
    raise ValueError(f"unsupported format {fmt!r} for estimate")


def _rows_to_csv(rows, fieldnames) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if row.get(k) is None else row[k]) for k in fieldnames})
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common_estimator_args(p):
    p.add_argument("--queries", type=int, default=12,
                   help="matvec queries for leja-hutchpp / hutchinson")
    p.add_argument("--probes", type=int, default=30, help="SLQ probe vectors")
    p.add_argument("--slq-degree", type=int, default=40, help="SLQ Lanczos degree")
    p.add_argument("--tol", type=float, default=1e-7,
                   help="action tolerance, relative to each probe norm")
    p.add_argument("--s-val", default="center",
                   help="divided-difference scaling: center | half-max | NUMBER")
    p.add_argument("--bounds", default="gershgorin", choices=["gershgorin", "lanczos"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-degree", type=int, default=400)
    p.add_argument("--deterministic", action="store_true", default=True,
                   help="run the probe actions one after another (default)")
    p.add_argument("--parallel", dest="deterministic", action="store_false",
                   help="run the probe actions on threads; results are bitwise "
                        "equal to the sequential run")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lejadet",
        description="Log-determinant estimation for sparse SPD matrices")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("estimate", help="estimate log det of one matrix")
    src = pe.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="Matrix Market file")
    src.add_argument("--gen", help="pentadiagonal:N or gmrf:G:THETA")
    pe.add_argument("--method", required=True, choices=METHODS)
    _add_common_estimator_args(pe)
    pe.add_argument("--format", default="json", choices=["json", "table"])
    pe.add_argument("--with-exact", action="store_true",
                    help="also compute the best feasible exact oracle")

    pg = sub.add_parser("gmrf-likelihood", help="log-likelihood scan over theta")
    pg.add_argument("--grid-side", type=int, required=True)
    pg.add_argument("--theta-true", type=float, required=True)
    pg.add_argument("--theta-start", type=float, required=True)
    pg.add_argument("--theta-stop", type=float, required=True)
    pg.add_argument("--theta-step", type=float, default=0.01)
    pg.add_argument("--no-sample", action="store_true",
                    help="skip sampling; emit only the log-determinant curve")
    _add_common_estimator_args(pg)
    pg.add_argument("--format", default="csv", choices=["csv", "json"])

    pb = sub.add_parser("bench", help="timing/accuracy table over a corpus")
    pb.add_argument("--gen", action="append", default=[],
                    help="generator spec; repeatable")
    pb.add_argument("--matrix", action="append", default=[],
                    help="Matrix Market file; repeatable")
    pb.add_argument("--methods", required=True,
                    help="comma-separated subset of: " + ",".join(METHODS))
    pb.add_argument("--reps", type=int, default=1)
    _add_common_estimator_args(pb)
    pb.add_argument("--format", default="csv", choices=["csv", "json"])

    pw = sub.add_parser("gen", help="write a generated matrix to a file")
    pw.add_argument("--gen", required=True, help="pentadiagonal:N or gmrf:G:THETA")
    pw.add_argument("--out", required=True)
    pw.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 means success-with-warnings here
        return 0 if not exc.code else 1
    try:
        if args.command == "estimate":
            cfg = RunConfig(
                method=args.method, matrix=args.matrix, gen=args.gen,
                queries=args.queries, probes=args.probes, slq_degree=args.slq_degree,
                tol=args.tol, s_val=str(args.s_val), bounds=args.bounds,
                seed=args.seed, format=args.format,
                deterministic=args.deterministic, max_degree=args.max_degree,
                with_exact=args.with_exact)
            result = run_estimate(cfg)
            print(_render_estimate(result, args.format))
            return 2 if result["report"]["warnings"] else 0

        if args.command == "gmrf-likelihood":
            steps = round((args.theta_stop - args.theta_start) / args.theta_step)
            thetas = [args.theta_start + i * args.theta_step for i in range(steps + 1)]
            out = gmrf_likelihood_scan(
                args.grid_side, args.theta_true, thetas, seed=args.seed,
                m_vec=args.queries, tol=args.tol, scaling=args.s_val,
                max_degree=args.max_degree, sample=not args.no_sample,
                reduction="sequential" if args.deterministic else "parallel",
                bounds_method=args.bounds)
            if args.format == "json":
                print(json.dumps(out, indent=2))
            else:
                print(_rows_to_csv(out["rows"],
                                   ["theta", "loglik", "logdet_est", "quadform"]))
            return 2 if out["warnings"] else 0

        if args.command == "bench":
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            for m in methods:
                if m not in METHODS:
                    raise ValueError(f"unknown method {m!r}")
            if not args.gen and not args.matrix:
                raise ValueError("bench needs at least one --gen or --matrix")
            defaults = RunConfig(
                method=methods[0], queries=args.queries,
                probes=args.probes, slq_degree=args.slq_degree, tol=args.tol,
                s_val=str(args.s_val), bounds=args.bounds, seed=args.seed,
                deterministic=args.deterministic, max_degree=args.max_degree)
            rows = run_bench(args.gen, args.matrix, methods, args.reps,
                             args.seed, defaults)
            if args.format == "json":
                print(json.dumps(rows, indent=2))
            else:
                print(_rows_to_csv(rows, ["matrix", "n", "nnz", "method", "rep",
                                          "seed", "estimate", "exact", "rel_err",
                                          "wall_time", "warnings", "error"]))
            return 2 if any(r["error"] or r["warnings"] for r in rows) else 0

        if args.command == "gen":
            Q, meta = parse_gen_spec(args.gen, args.seed)
            write_matrix_market(Q, args.out)
            print(f"wrote {meta} to {args.out} (n={Q.n}, nnz={Q.nnz})")
            return 0

        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
