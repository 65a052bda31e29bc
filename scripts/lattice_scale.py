"""Paper-scale lattice runs: Hutch++ and SLQ on gen_gmrf_grid(g, -0.22).

Usage (from the repository root):

    python scripts/lattice_scale.py

Each (g, method) run, for g in SIDES and each method in SETTINGS, is its
own child process, so its peak RSS is its own.  Before a run the script
predicts that peak from n-vector counts (8n bytes each, n = g^2) and reads
``MemAvailable`` from /proc/meminfo; the run is taken only when the
prediction is below 70% of it and below CAP_MB, and the sides stop at the
first Hutch++ run that would not fit.  The record, written to OUT, lists
every step, skipped ones with their reason, with time, matvecs, peak RSS
and the relative error against ``gmrf_grid_logdet_analytic``.  No gate:
the record is evidence, the tests own the bounds.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THETA = -0.22
SEED = 0
SIDES = (1000, 2000, 3000)
OUT = ROOT / "BENCH_lattice_scale.json"
FIT = 0.70                      # share of MemAvailable a predicted peak may use
# MemAvailable counts memory that other processes on a shared machine may
# claim at any time; no run is planned above this many MB, whatever it says
CAP_MB = 2500.0
BASE_MB = 120.0                 # interpreter, numpy, scipy and lejadet, rounded up
# n-vectors held at the peak: the CSR arrays (8.0 for a lattice), the held
# diagonal, and the estimator's dense block, as tests/test_memory.py bounds
# it: Hutch++ within 12; SLQ within 8 (the probe block, one float probe, two
# Lanczos vectors and two products)
PEAK_VECTORS = {"leja-hutchpp": 8.0 + 1.0 + 12.0, "slq": 8.0 + 1.0 + 8.0}
SETTINGS = {"leja-hutchpp": {"queries": 12, "tol": 1e-8},
            "slq": {"slq_degree": 40, "probes": 10}}


def cpu_name() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def mem_available_mb() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("MemAvailable not found in /proc/meminfo")


def predicted_peak_mb(g: int, method: str) -> float:
    return BASE_MB + PEAK_VECTORS[method] * 8.0 * g * g / 2**20


def child(g: int, method: str) -> dict:
    """One run in this process: oracle, matrix, estimate."""
    sys.path.insert(0, str(ROOT / "src"))
    from lejadet import estimate, gen_gmrf_grid, gmrf_grid_logdet_analytic
    exact = gmrf_grid_logdet_analytic(g, THETA)      # before the matrix: its g x g arrays go first
    t0 = time.perf_counter()
    Q = gen_gmrf_grid(g, THETA)
    build_s = time.perf_counter() - t0
    rep = estimate(Q, method, seed=SEED, **SETTINGS[method])
    rel = abs(rep.estimate - exact) / abs(exact)
    row = {"g": g, "n": g * g, "method": method, "settings": SETTINGS[method],
           "seed": SEED, "theta": THETA, "build_s": build_s,
           "estimate_s": rep.wall_time, "matvecs": rep.matvecs_total,
           "converged": rep.converged, "estimate": rep.estimate, "exact": exact,
           "rel_err": rel, "within_2pct": rel <= 0.02, "enclosure": rep.enclosure,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return row


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:         # one run, started by the loop below
        g, method = argv[1:]
        print(json.dumps(child(int(g), method)))
        return 0
    if argv:
        sys.exit("usage: python scripts/lattice_scale.py  (it takes no options)")
    import numpy
    import scipy
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs, status = [], 0
    for g in SIDES:
        stop = False
        for method in SETTINGS:
            predicted, available = predicted_peak_mb(g, method), mem_available_mb()
            step = {"g": g, "method": method, "predicted_peak_mb": round(predicted, 1),
                    "mem_available_mb": round(available, 1)}
            if predicted >= min(FIT * available, CAP_MB):
                step["skipped"] = (f"predicted peak above {FIT:.0%} of MemAvailable"
                                   if predicted >= FIT * available else
                                   f"predicted peak above CAP_MB = {CAP_MB:g}")
                runs.append(step)
                stop = stop or method == "leja-hutchpp"
                print(json.dumps(step), flush=True)
                continue
            proc = subprocess.run([sys.executable, __file__, "--child", str(g), method],
                                  capture_output=True, text=True, env=env)
            if proc.returncode != 0:
                step["failed"] = proc.stderr.strip().splitlines()[-1:]
                status = 1
            else:
                step.update(json.loads(proc.stdout.strip().splitlines()[-1]))
            runs.append(step)
            print(json.dumps(step), flush=True)
        if stop:
            break
    record = {"command": "python scripts/lattice_scale.py",
              "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                      "scipy": scipy.__version__, "nproc": os.cpu_count(),
                      "blas_threads": "1", "cpu": cpu_name()},
              "rule": f"a run is taken when its predicted peak is below {FIT:.0%} of "
                      f"MemAvailable read just before it and below CAP_MB = {CAP_MB:g} MB",
              "runs": runs}
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
