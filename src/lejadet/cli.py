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

from .likelihood import gmrf_likelihood_scan
from .logdet import EXACT_METHODS, METHODS, estimate
from .sparse import (_checked_seed, gen_gmrf_grid, gen_pentadiagonal,
                     load_matrix_market, write_matrix_market)
from .spectral import ConvergenceError

__all__ = ["main"]

# each exact method's oracle as --with-exact names it, in the order _exact tries them
ORACLES = {"exact-analytic": "lattice-analytic", "exact-band": "band-cholesky"}
# estimate's keyword arguments that are flags of `estimate` and `bench`, with
# their help; gmrf-likelihood, which runs no SLQ, has all but probes and slq_degree
ESTIMATOR_FLAGS = {"queries": "matvec queries for leja-hutchpp / hutchinson",
                   "probes": "SLQ probe vectors",
                   "slq_degree": "at most this many Lanczos steps per probe",
                   "tol": "tolerance in (0, 1): the Leja forms share a truncation "
                          "budget of n * tol",
                   "seed": None, "max_degree": None}
# the parsed flags of `estimate` echoed as the JSON result's "config", for replay
CONFIG_FIELDS = ("method", "matrix", "gen", "queries", "probes", "slq_degree", "tol",
                 "seed", "format", "max_degree", "with_exact")
MAX_THETAS = 10_000     # the most points of a gmrf-likelihood theta grid
# a `bench` row's keys in order: its JSON keys and its CSV header
BENCH_COLUMNS = ("matrix", "n", "nnz", "method", "rep", "seed", "estimate", "std_error",
                 "error_bound", "exact", "rel_err", "wall_time", "warnings", "error")


def _estimator_options(args) -> dict:
    """Check the estimator flags every command shares; the keyword arguments of
    ``estimate`` the command's flags set, seed aside."""
    if not args.tol > 0:        # NaN included
        raise ValueError("--tol must be positive")
    if not args.tol < 1:
        raise ValueError("--tol must be below 1")
    if args.max_degree < 0:
        raise ValueError("--max-degree must be non-negative")
    return {name: value for name, value in vars(args).items()
            if name in ESTIMATOR_FLAGS and name != "seed"}


def _finite(value: float, field: str, integral: bool = False) -> float:
    """value, refused with the field's name when it is infinite or NaN, or
    when ``integral`` and not a whole number."""
    if not math.isfinite(value):
        raise ValueError(f"{field} must be finite, got {value}")
    if integral and not value.is_integer():
        raise ValueError(f"{field} must be an integer, got {value}")
    return value


def parse_gen_spec(spec: str, seed: int):
    """Generator grammar: 'pentadiagonal:N' or 'gmrf:G:THETA'."""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "pentadiagonal":
        if len(parts) != 2:
            raise ValueError("expected pentadiagonal:N")
        n = int(_finite(float(parts[1]), "pentadiagonal:N", integral=True))
        return gen_pentadiagonal(n, seed=seed)
    if kind == "gmrf":
        if len(parts) != 3:
            raise ValueError("expected gmrf:G:THETA")
        g = int(_finite(float(parts[1]), "gmrf:G", integral=True))
        theta = _finite(float(parts[2]), "gmrf:THETA")
        return gen_gmrf_grid(g, theta)
    raise ValueError(f"unknown generator {kind!r}; use pentadiagonal:N or gmrf:G:THETA")


def _exact(Q):
    """(log det Q, its oracle) by the first of ``ORACLES`` to accept Q, or (None, None)."""
    for method, oracle in ORACLES.items():
        try:
            return estimate(Q, method).estimate, oracle
        except ValueError:
            pass
    return None, None


def _rel_err(value: float, exact: float) -> float:
    """|value - exact| / |exact|, defined (as 0 or huge) for an exact value of 0."""
    return abs(value - exact) / max(abs(exact), 1e-300)


def run_estimate(args) -> dict:
    """Load or generate the matrix, run the requested method, build the result."""
    options = _estimator_options(args)
    Q = (load_matrix_market(args.matrix) if args.matrix is not None
         else parse_gen_spec(args.gen, args.seed))
    report = estimate(Q, args.method, seed=args.seed, **options)
    result = {
        "config": {name: getattr(args, name) for name in CONFIG_FIELDS},
        "matrix": {"n": Q.n, "nnz": Q.nnz},
        "report": report.to_dict(),
        "exact": None,
    }
    if args.with_exact and args.method not in EXACT_METHODS:
        value, oracle = _exact(Q)
        if value is not None:
            result["exact"] = {"value": value, "rel_err": _rel_err(report.estimate, value),
                               "oracle": oracle}
    return result


def run_bench(args) -> list[dict]:
    """Per (matrix, method, repetition) rows; failures become error rows.

    Repetition r runs with seed ``--seed + r``; generators use ``--seed``.
    """
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValueError("bench needs at least one method in --methods")
    for method in methods:      # the methods before the options, as `estimate` checks
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    options = _estimator_options(args)
    if not args.gen and not args.matrix:
        raise ValueError("bench needs at least one --gen or --matrix")
    if args.reps < 1:
        raise ValueError("bench needs --reps >= 1")
    corpus = [(spec, parse_gen_spec(spec, args.seed)) for spec in args.gen]
    corpus += [(path, load_matrix_market(path)) for path in args.matrix]
    rows = []
    for label, Q in corpus:
        exact, _ = _exact(Q)
        for method in methods:
            for rep in range(args.reps):
                rep_seed = args.seed + rep
                row = dict.fromkeys(BENCH_COLUMNS)
                row.update(matrix=label, n=Q.n, nnz=Q.nnz, method=method, rep=rep,
                           seed=rep_seed, exact=exact, warnings=0)
                try:
                    report = estimate(Q, method, seed=rep_seed, **options).to_dict()
                    row.update({k: report[k] for k in ("estimate", "std_error",
                                                       "error_bound", "wall_time")})
                    row["warnings"] = len(report["warnings"])
                    if exact is not None:
                        row["rel_err"] = _rel_err(report["estimate"], exact)
                except Exception as exc:  # noqa: BLE001 - cell failures must not stop the run
                    row["error"] = str(exc)
                rows.append(row)
    return rows


def _theta_grid(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop; refused if empty or over MAX_THETAS."""
    if step == 0:
        raise ValueError("--theta-step must be non-zero")
    # floor, so the grid never passes stop; the slack absorbs the rounding
    # of e.g. (-0.20 - -0.24) / 0.02 = 1.999999999999999.  The quotient can
    # overflow to inf, so it is checked before it is floored
    steps = (stop - start) / step + 1e-9
    if steps < 0:
        raise ValueError(f"empty theta grid: --theta-step {step} does not lead "
                         f"from --theta-start {start} to --theta-stop {stop}")
    if steps >= MAX_THETAS:     # floor(steps) + 1 points
        points = math.floor(steps) + 1 if math.isfinite(steps) else steps
        raise ValueError(f"--theta-step {step} gives a grid of {points:.6g} points; "
                         f"at most {MAX_THETAS} are allowed")
    return [start + i * step for i in range(math.floor(steps) + 1)]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_estimate(result: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result, indent=2)
    rep = result["report"]
    lines = [
        f"method          {rep['method']}",
        f"n / nnz         {result['matrix']['n']} / {result['matrix']['nnz']}",
        f"estimate        {rep['estimate']:.6f}",
        f"  trace term    {rep['trace_estimate']:.6f}",
        f"  n log sigma   {rep['n_log_sigma']:.6f} (sigma={rep['sigma']:.6g})",
        f"enclosure       {rep['enclosure'] or '-'}",
        "std error       " + ("-" if rep["std_error"] is None
                              else f"{rep['std_error']:.3e}"),
        "error bound     " + ("-" if rep["error_bound"] is None
                              else f"{rep['error_bound']:.3e}"),
        "truncation      " + ("-" if rep["truncation_bound"] is None
                              else f"{rep['truncation_bound']:.3e}"),
        f"queries         {rep['queries']}",
        f"degrees         min {rep['degrees']['min']} / median {rep['degrees']['median']} / max {rep['degrees']['max']}",
        f"forms           {rep['bracket_stops']} stopped on the bracket / "
        f"{rep['tail_fallbacks']} fell back to the tail rule",
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

def _add_estimator_args(p, names=tuple(ESTIMATOR_FLAGS)):
    """The flags of estimate's keyword arguments ``names``, with its defaults."""
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), type=float if name == "tol" else int,
                       help=ESTIMATOR_FLAGS[name])
    p.set_defaults(**{name: estimate.__kwdefaults__[name] for name in names})


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
    _add_estimator_args(pe)
    pe.add_argument("--format", default="json", choices=["json", "table"])
    pe.add_argument("--with-exact", action="store_true",
                    help="also compute log det Q exactly, read off Q: the lattice "
                         "closed form, else banded Cholesky; null if both refuse")

    pg = sub.add_parser("gmrf-likelihood", help="log-likelihood scan over theta")
    pg.add_argument("--grid-side", type=int, required=True)
    pg.add_argument("--theta-true", type=float, required=True)
    pg.add_argument("--theta-start", type=float, required=True)
    pg.add_argument("--theta-stop", type=float, required=True)
    pg.add_argument("--theta-step", type=float, default=0.01)
    _add_estimator_args(pg, ("queries", "tol", "seed", "max_degree"))
    pg.add_argument("--format", default="csv", choices=["csv", "json"])

    pb = sub.add_parser("bench", help="timing/accuracy table over a corpus")
    pb.add_argument("--gen", action="append", default=[],
                    help="generator spec; repeatable")
    pb.add_argument("--matrix", action="append", default=[],
                    help="Matrix Market file; repeatable")
    pb.add_argument("--methods", required=True,
                    help="comma-separated subset of: " + ",".join(METHODS))
    pb.add_argument("--reps", type=int, default=1)
    _add_estimator_args(pb)
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
        _checked_seed(args.seed)        # every command's, before any work
        if args.command == "estimate":
            result = run_estimate(args)
            print(_render_estimate(result, args.format))
            return 2 if result["report"]["warnings"] else 0

        if args.command == "gmrf-likelihood":
            _estimator_options(args)            # the scan's estimator options
            for name in ("theta_true", "theta_start", "theta_stop", "theta_step"):
                _finite(getattr(args, name), "--" + name.replace("_", "-"))
            thetas = _theta_grid(args.theta_start, args.theta_stop, args.theta_step)
            out = gmrf_likelihood_scan(
                args.grid_side, args.theta_true, thetas, seed=args.seed,
                m_vec=args.queries, tol=args.tol, max_degree=args.max_degree)
            if args.format == "json":
                print(json.dumps(out, indent=2))
            else:
                print(_rows_to_csv(out["rows"],
                                   ["theta", "loglik", "logdet_est", "quadform"]))
            return 2 if out["warnings"] else 0

        if args.command == "bench":
            rows = run_bench(args)
            if args.format == "json":
                print(json.dumps(rows, indent=2))
            else:
                print(_rows_to_csv(rows, BENCH_COLUMNS))
            return 2 if any(r["error"] or r["warnings"] for r in rows) else 0

        # gen, the last of the parser's commands
        Q = parse_gen_spec(args.gen, args.seed)
        write_matrix_market(Q, args.out)
        print(f"wrote {args.gen} to {args.out} (n={Q.n}, nnz={Q.nnz})")
        return 0
    except (ValueError, OSError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
