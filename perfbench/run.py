"""lejadet benchmark: time to a checked log-det estimate, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

One run is one process and one workload.  It sets the workload up several
times (fresh ``import lejadet``, matrix ingest and validation, cold Leja pool,
one warm-up estimate) and reports the median as ``setup_s``; computes the
exact oracle once, outside set-up; then times estimates (enclosure plus
estimator) for ``--seconds`` and checks every one against the oracle.  The
warm-up and the first timed estimate use the same estimator seed and must
agree bitwise.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run that reports the per-layer metrics: it alternates untraced blocks of
estimates with traced ones, which wrap the names lejadet's estimator module
looks up (``log_matvec``, ``divided_differences_log``, ``generate_fast_leja``)
and record spans.  The last line of stdout is the JSON result; a JSON file
with the environment, every estimate and every span goes to
``perfbench/out/``.  ``--all`` runs every workload in its own process and
prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import stats
from tracing import Tracer, patched, self_times, totals_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 3          # set-ups per run; setup_s is their median
SPMV_REPS = 30      # matvec calls timed for sparse.spmv_s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# lejadet's BLAS calls are small (n x 4 QR, tridiagonal eigensolves, the SLQ
# reorthogonalisation); with two OpenBLAS threads on a 2-CPU box, any other
# load on those CPUs made estimates 2-9x slower (spin-waiting threads), so the
# benchmark pins BLAS to one thread, within the CPUs it may use.
BLAS_THREADS = 1

END_TO_END = {"estimate_s": "s", "setup_s": "s", "matvecs_per_estimate": "count",
              "peak_rss_mb": "MB"}


def nullspan(name):
    return contextlib.nullcontext()


def derive_seed(seed: int, stream: int, index: int = 0) -> int:
    """A 32-bit seed for one input, a pure function of the benchmark seed."""
    import numpy as np      # not at module level: BLAS threads are pinned first
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


MATRIX_STREAM, ESTIMATE_STREAM = 1, 2


def environment(seed: int, threads: str) -> dict:
    import numpy
    import scipy
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[f"L{level}{suffix}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "git_sha": git_sha(),
        "caches_per_core": caches,
        "seed": seed,
    }


def git_sha() -> str | None:
    """The checkout's commit, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_lejadet():
    """Import lejadet afresh from the checkout's src/ (cold module state)."""
    for name in [m for m in sys.modules if m == "lejadet" or m.startswith("lejadet.")]:
        del sys.modules[name]
    lj = importlib.import_module("lejadet")
    if not Path(lj.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported lejadet from {lj.__file__}, not from {SRC}")
    return lj


class Run:
    def __init__(self, wl, seed: int, seconds: float, trace: bool, workdir: Path = OUT):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.workdir = workdir
        self.tracer = Tracer()
        self.records: list[dict] = []
        self.setup_spans: list[range] = []     # span indices of each set-up
        self.action_calls: list[tuple] = []    # (estimate, degree, matvecs, converged)
        self.divdiff_calls: list[tuple] = []   # (estimate, taylor terms, truncated)

    # -- set-up ---------------------------------------------------------------
    def setup(self):
        wl, tr = self.wl, self.tracer
        matrix_seed = derive_seed(self.seed, MATRIX_STREAM)
        for _ in range(SETUPS):
            self.state = self.lj = state = lj = warm = None   # free the last set-up first
            gc.collect()
            first = len(tr.spans)
            with tr.span("setup"):
                with tr.span("import"):
                    lj = import_lejadet()
                state = wl.build(lj, matrix_seed, tr.span, str(self.workdir))
                with tr.span("leja.pool"):
                    lj.generate_fast_leja(lj.leja.DEFAULT_POOL_SIZE)
                with tr.span("warmup"):
                    warm = self.estimate(lj, state, 0, nullspan)
            self.setup_spans.append(range(first, len(tr.spans)))
            self.lj, self.state = lj, state
        with tr.span("oracle") as sp:
            self.exact = wl.exact(self.lj, self.state)
        self.oracle_s = sp.seconds
        self.warm = self.check(warm)

    # -- one estimate ---------------------------------------------------------
    def estimate(self, lj, state, k, span):
        seed = derive_seed(self.seed, ESTIMATE_STREAM, k // self.wl.block)
        rec = {"k": k, "seed": seed, "matrix": k % self.wl.block, "estimate": None,
               "matvecs": None, "converged": None, "kappa": None, "error": None}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                report, bounds, rec["matrix"] = self.wl.estimate(lj, state, k, seed, span)
            except Exception as exc:      # a failed estimate is counted, not fatal
                rec["error"] = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            rec["seconds"] = time.perf_counter() - t0
        rec["warnings"] = [str(w.message) for w in caught]
        if rec["error"] is None:
            rec.update(estimate=report.estimate, matvecs=report.matvecs_total,
                       converged=report.converged,
                       kappa=None if bounds is None else bounds.condition)
            rec["warnings"] += list(report.warnings)
        return rec

    def check(self, rec):
        """Add the oracle comparison and the failure verdict to a record."""
        exact = self.exact[rec["matrix"]]
        rec["exact"] = exact
        rec["rel_err"] = (None if rec["estimate"] is None
                          else stats.relative_error(rec["estimate"], exact))
        rec["failure"] = stats.classify(rec["estimate"], rec["converged"], rec["warnings"],
                                        exact, self.wl.tol, rec["error"])
        return rec

    # -- measurement ----------------------------------------------------------
    def measure(self):
        """Estimates for ``seconds``: whole blocks, at least ``min_estimates``.

        A traced run alternates untraced and traced blocks, so that drift in
        the machine's speed during the run does not bias ``trace.overhead``.
        """
        wl, tr = self.wl, self.tracer
        deadline = time.perf_counter() + self.seconds
        wrappers = self.wrappers() if self.trace else {}
        blocks = 0
        while True:
            traced = self.trace and blocks % 2 == 1
            with patched(sys.modules["lejadet.logdet"], wrappers if traced else {}):
                for _ in range(wl.block):
                    k = len(self.records)
                    if traced:
                        tr.estimate = k
                        with tr.span("estimate"):
                            rec = self.estimate(self.lj, self.state, k, tr.span)
                        tr.estimate = None
                    else:
                        rec = self.estimate(self.lj, self.state, k, nullspan)
                    rec["traced"] = traced
                    self.records.append(self.check(rec))
            blocks += 1
            if (len(self.records) >= wl.min_estimates and blocks >= 1 + self.trace
                    and time.perf_counter() >= deadline):
                break
        self.untraced = [r for r in self.records if not r["traced"]]
        self.traced = [r for r in self.records if r["traced"]]

    def wrappers(self) -> dict:
        """Traced stand-ins for the names lejadet's estimator module looks up."""
        logdet, tr = sys.modules["lejadet.logdet"], self.tracer

        def on_action(res):
            self.action_calls.append((tr.estimate, res.degree_used, res.matvecs,
                                      res.converged))

        def on_divdiff(dd):
            self.divdiff_calls.append((tr.estimate, dd.taylor_terms, dd.truncated))

        return {
            "log_matvec": tr.wrap("action", logdet.log_matvec, on_action),
            "divided_differences_log": tr.wrap("divdiff", logdet.divided_differences_log,
                                               on_divdiff),
            "generate_fast_leja": tr.wrap("leja", logdet.generate_fast_leja),
        }

    # -- results --------------------------------------------------------------
    def checks(self) -> dict:
        first, warm = self.records[0], self.warm
        return {"determinism": (warm["estimate"] is not None
                                and warm["seed"] == first["seed"]
                                and warm["estimate"] == first["estimate"]
                                and warm["matvecs"] == first["matvecs"]),
                "warmup_passed": warm["failure"] is None,
                "oracle_finite": all(math.isfinite(x) for x in self.exact)}

    def end_to_end(self) -> dict:
        prefix = self.records[:self.wl.min_estimates]
        setup = [self.tracer.spans[r.start].seconds for r in self.setup_spans]
        return {
            "estimate_s": stats.median(r["seconds"] for r in self.untraced),
            "setup_s": stats.median(setup),
            "matvecs_per_estimate": sum(r["matvecs"] or 0 for r in prefix) / len(prefix),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        own = self_times(spans)
        lj, wl = self.lj, self.wl
        # set-up layers: median over the set-ups of each layer's time
        setup_totals = [totals_by_name(spans[r.start:r.stop],
                                       [s.seconds for s in spans[r.start:r.stop]])
                        for r in self.setup_spans]

        def setup_median(name):
            return stats.median(t.get(name, 0.0) for t in setup_totals)

        # sparse: SpMV microbenchmark on the workload's own (first) matrix
        import numpy as np
        Q = self.state["Q"][0]
        v = np.random.default_rng(derive_seed(self.seed, 3)).standard_normal(Q.n)
        times = []
        for _ in range(SPMV_REPS):
            t0 = time.perf_counter()
            lj.matvec(Q, v)
            times.append(time.perf_counter() - t0)
        spmv_s = stats.median(times)
        m = Q.to_scipy()
        spmv_bytes = stats.spmv_bytes(Q.n, Q.nnz, m.data.itemsize, m.indices.itemsize,
                                      v.itemsize)

        # spectral: time and iterations of direct calls, estimate_interval's settings
        t0 = time.perf_counter()
        hi = lj.lanczos_lambda_max(Q, tol=1e-8)
        lo = lj.shift_invert_lambda_min(Q, tol=1e-8)
        lanczos_s = time.perf_counter() - t0
        kappas = [r["kappa"] for r in self.records if r["kappa"] is not None]
        kappa = stats.median(kappas) if kappas else hi.value / lo.value

        ids = {r["k"] for r in self.traced}
        count = len(ids)
        per = totals_by_name(spans, own, ids)
        total = totals_by_name(spans, [s.seconds for s in spans], ids)

        def mean(name, table=per):
            return table.get(name, 0.0) / count

        acts = [a for a in self.action_calls if a[0] in ids]
        dds = [d for d in self.divdiff_calls if d[0] in ids]
        degrees = [a[1] for a in acts]
        action_matvecs = sum(a[2] for a in acts) / count
        matvecs = sum(r["matvecs"] or 0 for r in self.traced) / count
        inline_spmv = (matvecs - action_matvecs) * spmv_s   # SLQ's own products
        action_spmv = action_matvecs * spmv_s
        logdet_self = mean("logdet") - inline_spmv
        layers = (mean("spectral.bounds") + mean("leja") + mean("divdiff")
                  + mean("action") + logdet_self + inline_spmv)
        traced_est = [r["seconds"] for r in self.traced]
        untraced_est = [r["seconds"] for r in self.untraced]
        prefix = self.records[:wl.min_estimates]
        errs = [r["rel_err"] for r in prefix if r["rel_err"] is not None]
        return {
            "sparse.ingest_s": setup_median("sparse.ingest"),
            "sparse.mm_write_s": setup_median("sparse.mm_write"),
            "sparse.mm_read_s": setup_median("sparse.mm_read"),
            "sparse.spmv_s": spmv_s,
            "sparse.spmv_bytes": spmv_bytes,
            "sparse.spmv_gbps": spmv_bytes / spmv_s / 1e9,
            "spectral.bounds_s": mean("spectral.bounds"),
            "spectral.lanczos_s": lanczos_s,
            "spectral.lanczos_iters": hi.iterations,
            "spectral.shift_invert_iters": lo.iterations,
            "spectral.kappa": kappa,
            "leja.pool_s": setup_median("leja.pool"),
            "leja.s": mean("leja"),
            "divdiff.s": mean("divdiff"),
            "divdiff.taylor_terms": stats.median(d[1] for d in dds) if dds else 0,
            "divdiff.truncated": sum(d[2] for d in dds),
            "action.s": mean("action"),
            "action.calls": len(acts) / count,
            "action.spmv_s": action_spmv,
            "action.glue_s": mean("action") - action_spmv,
            "action.degree_p50": stats.median(degrees) if degrees else 0,
            "action.degree_max": max(degrees) if degrees else 0,
            "action.unconverged": sum(not a[3] for a in acts),
            "logdet.s": mean("logdet", total),
            "logdet.self_s": logdet_self,
            "logdet.rel_err": stats.rms(errs) if errs else float("nan"),
            "oracle.s": self.oracle_s,
            "trace.overhead": stats.median(traced_est) / stats.median(untraced_est),
            "trace.coverage": layers / mean("estimate", total),
        }


UNITS = {
    "sparse.spmv_bytes": "B", "sparse.spmv_gbps": "GB/s",
    "spectral.lanczos_iters": "count", "spectral.shift_invert_iters": "count",
    "spectral.kappa": "ratio", "divdiff.taylor_terms": "count",
    "divdiff.truncated": "count", "action.calls": "count",
    "action.degree_p50": "count", "action.degree_max": "count",
    "action.unconverged": "count", "logdet.rel_err": "ratio",
    "trace.overhead": "ratio", "trace.coverage": "ratio",
}


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or UNITS.get(name) or "s"


def run_workload(args) -> int:
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    import mpmath, numpy, scipy.linalg, scipy.sparse   # noqa: F401  (lejadet's deps)
    deps_import_s = time.perf_counter() - t0
    run = Run(wl, args.seed, args.seconds, bool(args.trace))
    run.setup()
    run.measure()
    checks = run.checks()
    failures = [r for r in run.records if r["failure"] is not None]
    correct = all(checks.values()) and not failures
    metrics = run.per_layer() if args.trace else run.end_to_end()
    prefix = run.records[:wl.min_estimates]
    errs = [r["rel_err"] for r in prefix if r["rel_err"] is not None]

    env = environment(args.seed, os.environ["OMP_NUM_THREADS"])
    env["deps_import_s"] = deps_import_s
    env["working_set_bytes"] = working_set(run)
    n_timed = len(run.untraced)
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        note = ""
        if name == "estimate_s":
            tail = stats.tail_percentile(n_timed)
            note = f"  (median of n={n_timed} untraced estimates"
            if tail is not None:
                note += (f"; p{tail:.0f} "
                         f"{stats.percentile([r['seconds'] for r in run.untraced], tail):.4f} s")
            note += ")"
        elif name == "setup_s":
            note = f"  (median of n={SETUPS} set-ups)"
        elif name == "matvecs_per_estimate":
            note = f"  (mean over the first n={len(prefix)} estimates)"
        print(f"metric {name} = {value:.6g} {unit_of(name)}{note}")
    if args.trace:
        print(f"samples: per-estimate layer times are means over n={len(run.traced)} "
              f"traced estimates; set-up layers medians over n={SETUPS} set-ups; "
              f"trace.overhead against n={n_timed} untraced estimates")
    exact = (f"{run.exact[0]!r}" if len(run.exact) == 1 else
             f"{len(run.exact)} values in [{min(run.exact):.6g}, {max(run.exact):.6g}]")
    print(f"oracle exact {exact}  oracle_s={run.oracle_s:.4f}  tol={wl.tol:g} ({wl.spread})")
    print(f"check rel_err (rms over first {len(prefix)}) = "
          f"{stats.rms(errs) if errs else float('nan'):.4e}  failed {len(failures)}/"
          f"{len(run.records)} (failed_frac {len(failures) / len(run.records):.3g})")
    for r in failures + ([] if checks["warmup_passed"] else [run.warm]):
        print(f"check FAILED estimate k={r['k']} seed={r['seed']}: {r['failure']}")
    first = run.records[0]
    print(f"check determinism {'ok' if checks['determinism'] else 'FAILED'}: seed "
          f"{first['seed']} warm-up {run.warm['estimate']!r} ({run.warm['matvecs']} matvecs), "
          f"first timed {first['estimate']!r} ({first['matvecs']} matvecs)")

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    payload = {"workload": wl.name, "env": env, "checks": checks, "metrics": metrics,
               "tol": wl.tol, "tol_spread": wl.spread, "records": run.records,
               "warmup": run.warm, "exact": run.exact, "spans": run.tracer.to_json()}
    (OUT / f"{tag}.json").write_text(json.dumps(payload, default=str))
    result = {"correct": bool(correct), "attempted": len(run.records),
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def working_set(run) -> dict:
    """Computed bytes: CSR arrays of one matrix plus the estimator's dense block."""
    Q = run.state["Q"][0]
    m = Q.to_scipy()
    csr = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    dense = run.wl.dense_columns * 8 * Q.n
    return {"csr": csr, "dense": dense, "total": csr + dense}


def run_all(args) -> int:
    from workloads import WORKLOADS
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if line.startswith(("metric", "oracle", "check")):
                print(f"[{name}] {line}")
        if proc.returncode != 0:
            status = 1
            sys.stderr.write(proc.stderr)
        if lines:
            try:
                rows.append((name, json.loads(lines[-1])))
            except json.JSONDecodeError:
                status = 1
    for name, res in rows:
        print(f"{name:14s} correct={res['correct']} failed {res['failed']}/{res['attempted']}  "
              + "  ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lejadet" / "__init__.py").is_file():
        print(f"error: lejadet sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in BLAS_VARS:                 # before numpy loads its BLAS
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
