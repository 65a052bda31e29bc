"""Record of the Gauss-Radau stops: the Leja quadratic forms' and their
Lanczos hand-offs in BENCH_handoff.json, SLQ's in BENCH_slq_bracket.json,
and the Hutch++ forms' shared truncation budget in BENCH_budget.json.

Usage (from the repository root, with a checkout of the parent commit made
by ``git archive`` or ``git clone``):

    python scripts/bracket_bench.py --parent PATH [--part forms|slq|budget]
        [--pairs 10] [--seconds 30]

``--part forms`` (the default) writes ``forms`` and ``workloads`` to
BENCH_handoff.json, ``--part slq`` writes ``slq`` and ``workloads`` to
BENCH_slq_bracket.json, ``--part budget`` writes ``budget`` and
``workloads`` to BENCH_budget.json; every part runs against the parent
checkout:

- ``workloads``: for each workload of BENCHMARK.json, ``--pairs`` pairs of
  ``perfbench/run.py --workload W --seed S --seconds S --trace 0``, one
  process at a time, the parent first on odd seeds and this checkout first
  on even ones; per side the medians, quartiles and per-run values of the
  end-to-end metrics, in BENCH_slq_ring.json's layout.
- ``forms``: per matrix and tolerance, four Rademacher probes' quadratic
  forms ``log_matvec(..., form=True)`` on the interval ``estimate_interval``
  picks (the exact one for ``random_spd``, whose Lanczos route CG refuses
  at kappa = 1e4): products per form, the worst error at the stop,
  |form - v' log(Q/sigma) v| / ||v||^2, each form's ``stop`` ("bracket",
  "lanczos" for a hand-off, or the parent's "tail"), and how many forms
  stopped on the bracket or were handed to Lanczos.  Each side runs in its
  own process on its own ``src/``.  The reference is the lattice's
  sine-transform closed form, a dense eigendecomposition for
  ``random_spd`` (as in tests/conftest.py) and, for the pentadiagonal
  matrix, SLQ's Lanczos rule run until it has settled to rounding.
- ``slq``: per matrix, Lanczos cap m_l and probe seed, the steps each of
  ``slq_logdet(Q, m_l, 10, seed)``'s probes took, the worst relative
  deviation of a probe from the same probe run to m_l steps, and
  ``report.bracket_stops``, for the parent and this checkout, each in its
  own process on its own ``src/``.  A probe that ran to m_l is also
  checked bitwise against the parent's.
- ``budget``: per matrix of ``BUDGET_MATRICES``, tolerance and seed,
  ``hutchpp_logdet(Q, 12, tol, seed)`` for the parent and this checkout,
  each in its own process on its own ``src/``: the products of the
  deterministic and the residual forms, the matvecs per estimate, the
  bracket stops, ``report.truncation_bound`` (absent on the parent) against
  n * tol / 2, the largest |change - parent| of the estimate, the RMS
  relative error of each side against the lattice's closed form or banded
  Cholesky, and how many Hutchinson (12 probes) and SLQ (40 steps, 10
  probes) estimates equal the parent's bitwise.

Run it on the uncommitted change: ``parent_sha`` is this checkout's HEAD.
No gate: the record is evidence; the tests and the benchmark own the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = {"forms": ROOT / "BENCH_handoff.json", "slq": ROOT / "BENCH_slq_bracket.json",
       "budget": ROOT / "BENCH_budget.json"}
METRICS = ("estimate_s", "setup_s", "matvecs_per_estimate", "peak_rss_mb")
TOLS = (1e-7, 1e-10)
PROBES = 4
# (label, constructor call) of the form matrices; the call is evaluated in
# the child process with lejadet imported as lj and random_spd defined
MATRICES = (("lattice g=300 theta=-0.22", "lj.gen_gmrf_grid(300, -0.22)"),
            ("lattice g=300 theta=-0.24", "lj.gen_gmrf_grid(300, -0.24)"),
            ("lattice g=100 theta=-0.2499", "lj.gen_gmrf_grid(100, -0.2499)"),
            ("pentadiagonal n=10000 seed=0", "lj.gen_pentadiagonal(10_000, 0)"),
            ("random_spd(1, n=300, kappa=1e2)", "random_spd(1, 300, 1e2)"),
            ("random_spd(1, n=300, kappa=1e3)", "random_spd(1, 300, 1e3)"),
            ("random_spd(1, n=300, kappa=1e4)", "random_spd(1, 300, 1e4)"))


# (label, constructor call, m_l, probe seeds) of the SLQ rows, evaluated as
# MATRICES' calls are, with loose_tridiagonal defined
SLQ_MATRICES = (
    [(f"pentadiagonal n={n} seed={s}", f"lj.gen_pentadiagonal({n}, {s})", 40, (0, 1))
     for n, seeds in ((10_000, (0,)), (100_000, (0, 1, 2)), (1_000_000, (0,)))
     for s in seeds]
    + [("lattice g=447 theta=-0.22", "lj.gen_gmrf_grid(447, -0.22)", 80, (0,)),
       ("lattice g=300 theta=-0.24", "lj.gen_gmrf_grid(300, -0.24)", 80, (0,)),
       ("loose-Gershgorin tridiagonal n=10000", "loose_tridiagonal(10_000)", 80, (0,)),
       ("lattice g=100 theta=-0.2499", "lj.gen_gmrf_grid(100, -0.2499)", 80, (0,)),
       ("random_spd(0, n=200, kappa=1e3)", "random_spd(0, 200, 1e3)[0]", 40, (0,)),
       ("random_spd(0, n=200, kappa=1e2)", "random_spd(0, 200, 1e2)[0]", 80, (0,))])
SLQ_PROBES = 10

# (label, constructor call, tol) of the budget rows, evaluated as MATRICES'
# calls are; each runs BUDGET_SEEDS
BUDGET_MATRICES = (("lattice g=300 theta=-0.24", "lj.gen_gmrf_grid(300, -0.24)", 1e-7),
                   ("lattice g=447 theta=-0.22", "lj.gen_gmrf_grid(447, -0.22)", 1e-7),
                   ("lattice g=40 theta=-0.22", "lj.gen_gmrf_grid(40, -0.22)", 1e-7),
                   ("lattice g=100 theta=-0.2499", "lj.gen_gmrf_grid(100, -0.2499)", 1e-7),
                   ("pentadiagonal n=10000 seed=0", "lj.gen_pentadiagonal(10_000, 0)",
                    1e-10))
BUDGET_SEEDS = tuple(range(10))


def cpu_name() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one perfbench run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(results: list[dict]) -> dict:
    per_run = {m: [r["metrics"][m]["value"] for r in results] for m in METRICS}
    return {"all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "median": {m: statistics.median(v) for m, v in per_run.items()},
            "quartiles": {m: statistics.quantiles(v, n=4)[::2] for m, v in per_run.items()},
            "per_run": per_run}


def workloads(parent: Path, pairs: int, seconds: float) -> dict:
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    out = {}
    for name in names:
        sides = {"parent": [], "change": []}
        seeds = list(range(1, pairs + 1))
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                sides[side].append(bench_run(parent if side == "parent" else ROOT,
                                             name, seed, seconds))
                print(f"{name} seed {seed} {side}: "
                      f"{ {m: round(sides[side][-1]['metrics'][m]['value'], 4) for m in METRICS} }",
                      flush=True)
        rows = {side: summary(results) for side, results in sides.items()}
        rows["change_lower_in"] = {
            m: sum(c < p for c, p in zip(rows["change"]["per_run"][m],
                                         rows["parent"]["per_run"][m]))
            for m in METRICS}
        out[name] = {"pairs": pairs, "seeds": seeds, **rows}
    return out


# tests/conftest.py's matrix, on its exact interval; pasted into the children
RANDOM_SPD = r'''
def random_spd(seed, n, kappa, lo=2.0):
    """tests/conftest.py's matrix, on its exact interval."""
    rng = np.random.default_rng(seed)
    eig = lo * kappa ** rng.uniform(0.0, 1.0, size=n)
    eig[0], eig[-1] = lo, lo * kappa
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    dense = (basis * eig) @ basis.T
    w = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    return (lj.SparseMatrixCSR.from_scipy(0.5 * (dense + dense.T)),
            lj.SpectralInterval(w[0], w[-1], method="exact"))
'''

# the Lanczos probe, in quadrature since it serves the Leja forms' hand-off
# too, and in logdet before; pasted into the children
LANCZOS_QUADRATURE = r'''
try:
    from lejadet.quadrature import _lanczos_quadrature
except ImportError:
    from lejadet.logdet import _lanczos_quadrature
'''

FORMS_CHILD = r'''
import json, math, sys
import numpy as np
from scipy.fft import dstn
import lejadet as lj
from lejadet import logdet
from lejadet.action import log_matvec
LANCZOS_QUADRATURE

RANDOM_SPD

def reference(Q, v):
    """v' log(Q) v."""
    try:
        g, theta = logdet.lattice_of(Q)
    except ValueError:
        pass
    else:
        lam = lj.oracle.lattice_eigenvalues(g, theta)
        return float(np.sum(dstn(v.reshape(g, g), type=1, norm="ortho") ** 2 * np.log(lam)))
    if Q.n <= 1000:
        w, V = np.linalg.eigh(Q.to_scipy().toarray())
        return float(v @ (V @ (np.log(w) * (V.T @ v))))
    return _lanczos_quadrature(Q.to_scipy(), v, 60, 0.0)[0]

rows = []
for label, call, tols, probes in json.loads(sys.argv[1]):
    Q = eval(call)
    Q, bounds = Q if isinstance(Q, tuple) else (Q, lj.estimate_interval(Q, seed=0))
    # a tolerance no exact trace meets: the engine builds the forms' table
    eng = logdet._ActionEngine(Q, bounds, logdet.DEFAULT_MAX_DEGREE, 0, 1e-300)
    for tol in tols:
        rng = np.random.default_rng(0)
        products, errors, stops, converged = [], [], [], []
        for _ in range(probes):
            v = rng.integers(0, 2, Q.n) * 2.0 - 1.0
            res = log_matvec(Q, v, eng.forms, tol, form=True)
            exact = reference(Q, v) - eng.log_sigma * Q.n
            products.append(res.degree_used)
            errors.append(abs(res.form - exact) / Q.n)
            stops.append(getattr(res, "stop", None))
            converged.append(res.converged)
        rows.append({"matrix": label, "tol": tol, "enclosure": bounds.method,
                     "kappa": bounds.condition, "products": products,
                     "worst_error": max(errors), "converged": all(converged),
                     "stops": stops, "bracket_stops": stops.count("bracket"),
                     "handoffs": stops.count("lanczos")})
print(json.dumps(rows))
'''


SLQ_CHILD = r'''
import json, sys
import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigvalsh_tridiagonal
import lejadet as lj
from lejadet import logdet
RANDOM_SPD
LANCZOS_QUADRATURE

def loose_tridiagonal(n):
    """Diagonal alternating 2.8 and 5.767, off-diagonal 1.3: Gershgorin's
    lower end is 0.2, lambda_min 1.29."""
    diag, off = np.where(np.arange(n) % 2, 5.767, 2.8), np.full(n - 1, 1.3)
    return lj.SparseMatrixCSR.from_scipy(sp.diags([off, diag, off], [-1, 0, 1],
                                                  format="csr"))

def probes(Q, m_l, seed, full):
    """(value, steps) of each probe of slq_logdet(Q, m_l, n_v, seed), and the
    report; with ``full`` every probe runs m_l steps (no lower end, so no
    bracket)."""
    out = []

    def recording(m_sp, v, m_l, lowest):
        result = _lanczos_quadrature(m_sp, v, m_l, 0.0 if full else lowest)
        out.append((float(result[0]), int(result[1])))
        return result

    logdet._lanczos_quadrature = recording      # the name SLQ calls
    try:
        rep = lj.slq_logdet(Q, m_l, N_V, seed=seed)
    finally:
        logdet._lanczos_quadrature = _lanczos_quadrature
    return out, rep

rows = []
for label, call, m_l, seeds in json.loads(sys.argv[1]):
    Q = eval(call)
    for seed in seeds:
        stopped, rep = probes(Q, m_l, seed, False)
        full, _ = probes(Q, m_l, seed, True)
        rows.append({"matrix": label, "m_l": m_l, "probe_seed": seed,
                     "gershgorin_lower": Q.gershgorin[0],
                     "steps": [k for _, k in stopped],
                     "worst_deviation": max(abs(v - f) / abs(f)
                                            for (v, _), (f, _) in zip(stopped, full)),
                     "values": [v.hex() for v, _ in stopped],
                     "bracket_stops": getattr(rep, "bracket_stops", 0),
                     "matvecs_total": rep.matvecs_total})
print(json.dumps(rows))
'''


BUDGET_CHILD = r'''
import json, sys
import lejadet as lj
from lejadet import logdet

engines = []

class Recording(logdet._ActionEngine):
    def __init__(self, *args):
        super().__init__(*args)
        engines.append(self)

logdet._ActionEngine = Recording
rows = []
for label, call, tol, seeds in json.loads(sys.argv[1]):
    Q = eval(call)
    oracle = "exact-analytic" if label.startswith("lattice") else "exact-band"
    exact = lj.estimate(Q, oracle).estimate
    for seed in seeds:
        engines.clear()
        rep = lj.hutchpp_logdet(Q, 12, action_tol=tol, seed=seed)
        products = {}
        for r in engines[0].records:
            products.setdefault(r.label.split()[0], []).append(r.degree)
        rows.append({"matrix": label, "tol": tol, "seed": seed, "n": Q.n,
                     "exact": exact, "estimate": rep.estimate,
                     "deterministic": products.get("deterministic", []),
                     "residual": products.get("residual", []),
                     "matvecs": rep.matvecs_total, "bracket_stops": rep.bracket_stops,
                     "truncation_bound": getattr(rep, "truncation_bound", None),
                     "hutchinson": logdet.hutchinson_logdet(Q, 12, action_tol=tol,
                                                            seed=seed).estimate.hex(),
                     "slq": lj.slq_logdet(Q, 40, 10, seed=seed).estimate.hex()})
print(json.dumps(rows))
'''


def child(checkout: Path, code: str, spec) -> list[dict]:
    """The rows ``code`` prints for ``spec``, run on ``checkout``'s ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(spec)], env=env,
                          capture_output=True, text=True, timeout=3600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def forms(checkout: Path) -> list[dict]:
    """Per-form rows of ``checkout``'s ``log_matvec``, in a child process."""
    return child(checkout, FORMS_CHILD.replace("RANDOM_SPD", RANDOM_SPD)
                 .replace("LANCZOS_QUADRATURE", LANCZOS_QUADRATURE),
                 [(label, call, TOLS, PROBES) for label, call in MATRICES])


def slq(parent: Path) -> dict:
    """Per-probe SLQ rows of the parent and this checkout; a probe that ran
    to m_l on both sides is marked where its values agree bitwise."""
    code = (SLQ_CHILD.replace("RANDOM_SPD", RANDOM_SPD)
            .replace("LANCZOS_QUADRATURE", LANCZOS_QUADRATURE)
            .replace("N_V", str(SLQ_PROBES)))
    sides = {side: child(path, code, SLQ_MATRICES)
             for side, path in (("parent", parent), ("change", ROOT))}
    for old, new in zip(sides["parent"], sides["change"]):
        full = [i for i, (a, b) in enumerate(zip(old["steps"], new["steps"]))
                if a == b == new["m_l"]]
        new["full_probes_bitwise_to_parent"] = (
            f"{sum(old['values'][i] == new['values'][i] for i in full)}/{len(full)}")
    for row in sides["parent"] + sides["change"]:
        del row["values"]
    return {"probes": SLQ_PROBES,
            "deviation": "max over probes of |value - value run to m_l| / |value run to m_l|",
            **sides}


def budget(parent: Path) -> list[dict]:
    """Per matrix, the parent's and this checkout's Hutch++ forms over
    ``BUDGET_SEEDS``, and how far the estimates moved."""
    spec = [(label, call, tol, BUDGET_SEEDS) for label, call, tol in BUDGET_MATRICES]
    sides = {side: child(path, BUDGET_CHILD, spec)
             for side, path in (("parent", parent), ("change", ROOT))}
    out = []
    for label, _, tol in BUDGET_MATRICES:
        runs = {side: [r for r in rows if r["matrix"] == label]
                for side, rows in sides.items()}
        n = runs["change"][0]["n"]
        row = {"matrix": label, "tol": tol, "n": n, "half_budget": n * tol / 2}
        for side, rs in runs.items():
            rel = [(r["estimate"] - r["exact"]) / abs(r["exact"]) for r in rs]
            bounds = [r["truncation_bound"] for r in rs]
            row[side] = {
                "deterministic_products": sorted({k for r in rs for k in r["deterministic"]}),
                "residual_products": sorted({k for r in rs for k in r["residual"]}),
                "matvecs_per_estimate": [r["matvecs"] for r in rs],
                "bracket_stops": [r["bracket_stops"] for r in rs],
                "max_truncation_bound": (None if None in bounds else max(bounds)),
                "rms_rel_err": statistics.fmean(x * x for x in rel) ** 0.5}
        pairs = list(zip(runs["parent"], runs["change"]))
        row["max_abs_estimate_change"] = max(abs(c["estimate"] - p["estimate"])
                                             for p, c in pairs)
        for name in ("hutchinson", "slq"):
            row[f"{name}_bitwise_to_parent"] = (
                f"{sum(p[name] == c[name] for p, c in pairs)}/{len(pairs)}")
        out.append(row)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--part", choices=tuple(OUT), default="forms")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    import numpy
    import scipy
    record = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0",
        "order": "pairs in seed order, one process at a time; parent first on odd seeds, "
                 "change first on even seeds",
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "nproc": os.cpu_count(),
                "blas_threads": "1", "cpu": cpu_name()},
        "parent_sha": subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                     capture_output=True, check=True).stdout.strip(),
        "change": "the commit that adds this file (measured on its working tree over "
                  "the parent)",
    }
    if args.part == "forms":
        record["claim"] = ("no gain: every workload and metric within its bound; forms "
                           "whose moments break down are handed to Lanczos and close "
                           "their bracket")
        record["forms"] = {"probes": PROBES, "tols": list(TOLS),
                           "error": "max over probes of |form - v' log(Q/sigma) v| / "
                                    "||v||^2",
                           "parent": forms(args.parent), "change": forms(ROOT)}
    elif args.part == "slq":
        record["claim"] = ("penta-slq matvecs_per_estimate lower; every other workload "
                           "and metric within its bound")
        record["slq"] = slq(args.parent)
    else:
        record["claim"] = ("lattice-300 matvecs_per_estimate lower; every other workload "
                           "and metric within its bound")
        record["budget"] = {"queries": 12, "seeds": list(BUDGET_SEEDS),
                            "parent": "every form's bracket at most tol ||v||^2 wide",
                            "change": "the forms share n * tol by their weight in the "
                                      "estimate",
                            "rows": budget(args.parent)}
    out = OUT[args.part]
    out.write_text(json.dumps(record, indent=1) + "\n")
    record["workloads"] = workloads(args.parent, args.pairs, args.seconds)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
