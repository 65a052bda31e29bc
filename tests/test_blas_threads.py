"""Estimator hot loops stay fast when BLAS threads are not pinned.

numpy and scipy each bundle their own OpenBLAS with its own thread pool.
A loop that alternates the two (say a scipy daxpy, then a numpy dot) makes
each pool wait for the other's spinning threads, and an estimate slowed
down about 8x on two cores.  The same estimates are timed in two fresh
interpreters, one with the ``*_NUM_THREADS`` variables unset and one with
them pinned to 1.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import lejadet

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

CHILD = """
import json, statistics, time
from lejadet import (estimate_interval, gen_gmrf_grid, gen_pentadiagonal,
                     hutchpp_logdet, shift_invert_lambda_min, slq_logdet)

def median_time(func, runs=3):
    func()                                  # warm-up
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        func()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)

# a lattice of n ~= 10^5: its enclosure is too wide for an exact low-degree
# trace, so Hutch++ runs its sketch, QR and probes
Q = gen_gmrf_grid(316, -0.22)
bounds = estimate_interval(Q, "gershgorin")
Q_slq = gen_pentadiagonal(10_000, seed=0)
# Lanczos steps whose products are CG solves: the enclosure's lambda_min
Q_si = gen_gmrf_grid(150, -0.22)
print(json.dumps({
    "hutchpp": median_time(lambda: hutchpp_logdet(Q, 12, seed=1, bounds=bounds)),
    "slq": median_time(lambda: slq_logdet(Q_slq, 40, 5, seed=1)),
    "shift_invert": median_time(lambda: shift_invert_lambda_min(Q_si, 1e-8)),
}))
"""


def timed_child(pinned):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if pinned:
        env.update(dict.fromkeys(THREAD_VARS, "1"))
    src = str(Path(lejadet.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    return json.loads(out.stdout)


def test_unpinned_blas_costs_at_most_3x_pinned():
    pinned = timed_child(pinned=True)
    unpinned = timed_child(pinned=False)
    for name in ("hutchpp", "slq", "shift_invert"):
        assert unpinned[name] <= 3.0 * pinned[name], (name, unpinned, pinned)
