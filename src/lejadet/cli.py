"""Command-line front end: estimate log-determinants, benchmark, scan likelihoods.

Exit codes: 0 on success, 2 on success with estimator warnings (e.g. an
action that stopped at the degree cap), 1 on failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass

from .likelihood import gmrf_likelihood_scan
from .logdet import EXACT_METHODS, METHODS, estimate
from .oracle import DENSE_CAP
from .sparse import (SparseMatrixCSR, gen_gmrf_grid, gen_pentadiagonal,
                     load_matrix_market, write_matrix_market)

__all__ = ["main", "RunConfig"]

# the oracle behind each exact method, as named in --with-exact results
ORACLES = {"exact-dense": "dense-cholesky", "exact-band": "band-cholesky",
           "exact-analytic": "lattice-analytic"}


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
    max_degree: int = 400
    with_exact: bool = False

    def validate(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if (self.matrix is None) == (self.gen is None):
            raise ValueError("exactly one matrix source is required "
                             "(--matrix PATH or --gen SPEC)")
        if self.bounds not in ("gershgorin", "lanczos"):
            raise ValueError("--bounds must be gershgorin or lanczos")
        if self.s_val not in ("center", "half-max"):
            try:
                float(self.s_val)
            except ValueError:
                raise ValueError("--s-val must be 'center', 'half-max', or a number")
        if self.tol <= 0:
            raise ValueError("--tol must be positive")

    def options(self) -> dict:
        """The keyword arguments of ``estimate`` that this run sets, seed aside."""
        scaling = self.s_val if self.s_val in ("center", "half-max") else float(self.s_val)
        return {"queries": self.queries, "probes": self.probes,
                "slq_degree": self.slq_degree, "tol": self.tol, "scaling": scaling,
                "bounds": self.bounds, "max_degree": self.max_degree}


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


def _lattice(meta: dict):
    """(g, theta) of a generated lattice, which the analytic oracle needs."""
    return (meta["g"], meta["theta"]) if meta.get("kind") == "gmrf" else None


def _rel_err(value: float, exact: float) -> float:
    """|value - exact| / |exact|, defined (as 0 or huge) for an exact value of 0."""
    return abs(value - exact) / max(abs(exact), 1e-300)


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


def run_estimate(cfg: RunConfig) -> dict:
    """Load or generate the matrix, run the configured method, build the result."""
    cfg.validate()
    Q, meta = _get_matrix(cfg)
    lattice = _lattice(meta)
    report = estimate(Q, cfg.method, seed=cfg.seed, lattice=lattice, **cfg.options())
    result = {
        "config": asdict(cfg),
        "matrix": {"n": Q.n, "nnz": Q.nnz},
        "report": report.to_dict(),
        "exact": None,
    }
    if cfg.with_exact and cfg.method not in EXACT_METHODS:
        how = _best_oracle(Q, meta)
        if how is not None:
            value = estimate(Q, how, lattice=lattice).estimate
            result["exact"] = {"value": value, "rel_err": _rel_err(report.estimate, value),
                               "oracle": ORACLES[how]}
    return result


def run_bench(gens, files, methods, reps, cfg: RunConfig) -> list[dict]:
    """Per (matrix, method, repetition) rows; failures become error rows.

    Repetition r runs with seed ``cfg.seed + r``; generators use ``cfg.seed``.
    """
    corpus = []
    for spec in gens:
        Q, meta = parse_gen_spec(spec, cfg.seed)
        corpus.append((spec, Q, meta))
    for path in files:
        corpus.append((path, load_matrix_market(path), {"kind": "file", "path": path}))
    rows = []
    for label, Q, meta in corpus:
        lattice = _lattice(meta)
        oracle_how = _best_oracle(Q, meta)
        exact = None
        if oracle_how is not None:
            try:
                exact = estimate(Q, oracle_how, lattice=lattice).estimate
            except ValueError:
                exact = None
        for method in methods:
            for rep in range(reps):
                rep_seed = cfg.seed + rep
                row = {"matrix": label, "n": Q.n, "nnz": Q.nnz, "method": method,
                       "rep": rep, "seed": rep_seed, "estimate": None,
                       "exact": exact, "rel_err": None, "wall_time": None,
                       "warnings": 0, "error": None}
                try:
                    report = estimate(Q, method, seed=rep_seed, lattice=lattice,
                                      **cfg.options())
                    row["estimate"] = report.estimate
                    row["wall_time"] = report.wall_time
                    row["warnings"] = len(report.warnings)
                    if exact is not None:
                        row["rel_err"] = _rel_err(report.estimate, exact)
                except Exception as exc:  # noqa: BLE001 - cell failures must not stop the run
                    row["error"] = str(exc)
                rows.append(row)
    return rows


def _theta_grid(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop; a grid without points is an error."""
    if step == 0:
        raise ValueError("--theta-step must be non-zero")
    steps = round((stop - start) / step)
    if steps < 0:
        raise ValueError(f"empty theta grid: --theta-step {step} does not lead "
                         f"from --theta-start {start} to --theta-stop {stop}")
    return [start + i * step for i in range(steps + 1)]


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
                seed=args.seed, format=args.format, max_degree=args.max_degree,
                with_exact=args.with_exact)
            result = run_estimate(cfg)
            print(_render_estimate(result, args.format))
            return 2 if result["report"]["warnings"] else 0

        if args.command == "gmrf-likelihood":
            thetas = _theta_grid(args.theta_start, args.theta_stop, args.theta_step)
            out = gmrf_likelihood_scan(
                args.grid_side, args.theta_true, thetas, seed=args.seed,
                m_vec=args.queries, tol=args.tol, scaling=args.s_val,
                max_degree=args.max_degree, sample=not args.no_sample,
                bounds_method=args.bounds)
            if args.format == "json":
                print(json.dumps(out, indent=2))
            else:
                print(_rows_to_csv(out["rows"],
                                   ["theta", "loglik", "logdet_est", "quadform"]))
            return 2 if out["warnings"] else 0

        if args.command == "bench":
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            if not methods:
                raise ValueError("bench needs at least one method in --methods")
            for m in methods:
                if m not in METHODS:
                    raise ValueError(f"unknown method {m!r}")
            if not args.gen and not args.matrix:
                raise ValueError("bench needs at least one --gen or --matrix")
            if args.reps < 1:
                raise ValueError("bench needs --reps >= 1")
            cfg = RunConfig(
                method=methods[0], queries=args.queries,
                probes=args.probes, slq_degree=args.slq_degree, tol=args.tol,
                s_val=str(args.s_val), bounds=args.bounds, seed=args.seed,
                max_degree=args.max_degree)
            rows = run_bench(args.gen, args.matrix, methods, args.reps, cfg)
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
