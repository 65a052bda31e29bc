"""The workloads: matrix set-up, exact oracle and one timed estimate each.

Every workload drives lejadet's public functions only.  ``build`` is the
set-up a user pays before the first estimate (matrix ingest and
validation), ``exact`` is the oracle, kept out of set-up time, and
``estimate`` is one timed log-det estimate: the spectral enclosure plus the
estimator call, exactly what the benchmark's ``estimate_s`` measures.

``span(name)`` returns a context manager; the traced run passes the
tracer's, the untraced run a no-op.  The tolerances are stated with the
seed-to-seed spread of the relative error they were set from, so that Monte
Carlo noise alone never fails an estimate (see README.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Hutch++ settings shared by the three Leja workloads (the CLI's defaults
# for `estimate --method leja-hutchpp --queries 12 --tol 1e-7`).
M_VEC = 12
ACTION_TOL = 1e-7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str      # one line, repeated in BENCHMARK.json
    tol: float
    spread: str
    # estimates every run makes at least; metrics that must repeat exactly
    # for one seed (matvecs, relative error) are taken over these
    min_estimates: int
    # estimates that share one estimator seed and end a run together
    # (one likelihood sweep); 1 elsewhere
    block: int = 1


class PentaHutchpp(Workload):
    """Random SPD pentadiagonal, n = 10^6, Gershgorin + Hutch++."""

    n = 10**6
    # dense n-vectors alive during an estimate (computed working set):
    # sketch, its image, the basis and the residual probes (m_vec/3 columns
    # each) plus the action's iterate, sum and product temporaries
    dense_columns = 4 * (M_VEC // 3) + 4

    def build(self, lj, seed, span, workdir):
        with span("sparse.ingest"):
            Q = lj.gen_pentadiagonal(self.n, seed)
        return {"Q": [Q]}

    def exact(self, lj, state):
        return [lj.band_logdet_cholesky(state["Q"][0], 2)]

    def estimate(self, lj, state, k, seed, span):
        Q = state["Q"][0]
        with span("spectral.bounds"):
            bounds = lj.estimate_interval(Q, "gershgorin")
        with span("logdet"):
            report = lj.hutchpp_logdet(Q, m_vec=M_VEC, action_tol=ACTION_TOL,
                                       seed=seed, bounds=bounds)
        return report, bounds, 0


class LatticeFile(Workload):
    """Lattice g = 300 written to Matrix Market and read back, then Hutch++."""

    g, theta = 300, -0.24
    dense_columns = PentaHutchpp.dense_columns

    def build(self, lj, seed, span, workdir):
        path = os.path.join(workdir, f"lattice-{self.g}-{os.getpid()}.mtx")
        with span("sparse.ingest"):
            Q = lj.gen_gmrf_grid(self.g, self.theta)
        try:
            with span("sparse.mm_write"):
                lj.write_matrix_market(Q, path)
            del Q
            with span("sparse.mm_read"):
                Q = lj.load_matrix_market(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        return {"Q": [Q]}

    def exact(self, lj, state):
        return [lj.gmrf_grid_logdet_analytic(self.g, self.theta)]

    estimate = PentaHutchpp.estimate


class LatticeScan(Workload):
    """Likelihood sweep: g = 128, theta = -0.24 .. -0.14, Lanczos enclosure."""

    g = 128
    dense_columns = PentaHutchpp.dense_columns
    thetas = tuple(round(-0.24 + 0.01 * i, 2) for i in range(11))

    def build(self, lj, seed, span, workdir):
        with span("sparse.ingest"):
            Qs = [lj.gen_gmrf_grid(self.g, t) for t in self.thetas]
        return {"Q": Qs}

    def exact(self, lj, state):
        return [lj.gmrf_grid_logdet_analytic(self.g, t) for t in self.thetas]

    def __post_init__(self):
        if self.block != len(self.thetas):
            raise ValueError("a sweep block must hold one estimate per theta")

    def estimate(self, lj, state, k, seed, span):
        i = k % self.block
        Q = state["Q"][i]
        with span("spectral.bounds"):
            bounds = lj.estimate_interval(Q, "lanczos")
        with span("logdet"):
            report = lj.hutchpp_logdet(Q, m_vec=M_VEC, action_tol=ACTION_TOL,
                                       seed=seed, bounds=bounds)
        return report, bounds, i


class PentaSLQ(Workload):
    """Random SPD pentadiagonal, n = 10^5, stochastic Lanczos quadrature."""

    n, m_l, n_v = 10**5, 40, 10
    dense_columns = m_l + n_v + 1     # Lanczos basis, probes, one iterate

    def build(self, lj, seed, span, workdir):
        with span("sparse.ingest"):
            Q = lj.gen_pentadiagonal(self.n, seed)
        return {"Q": [Q]}

    exact = PentaHutchpp.exact

    def estimate(self, lj, state, k, seed, span):
        with span("logdet"):
            report = lj.slq_logdet(state["Q"][0], m_l=self.m_l, n_v=self.n_v,
                                   seed=seed)
        return report, None, 0


WORKLOADS = {w.name: w for w in (
    PentaHutchpp(
        name="penta-1e6",
        why="n=1e6 pentadiagonal, Hutch++ deg 2: loads action glue and logdet "
            "self time over 8 MB vectors; bypasses spectral (Gershgorin), "
            "divdiff, Matrix Market; tol 1e-5 (MC rms 1.4e-6)",
        tol=1e-5,
        spread="relative error rms 1.4e-6, max 4.4e-6 over 20 seeds",
        min_estimates=8),
    LatticeFile(
        name="lattice-300",
        why="g=300 lattice via Matrix Market round trip, Hutch++ deg 42: "
            "loads action (SpMV+glue, cache-resident) and MM I/O; bypasses "
            "spectral (Gershgorin); tol 6% (MC rms 1%)",
        tol=0.06,
        spread="relative error rms 1.0%, max 2.3% over 20 seeds",
        min_estimates=16),
    LatticeScan(
        name="lattice-scan",
        why="g=128 likelihood sweep, theta -0.24..-0.14, Lanczos enclosure: "
            "loads spectral (Lanczos, CG), per-theta divdiff; bypasses MM I/O; "
            "tol 25% (MC rms up to 4.1%)",
        tol=0.25,
        spread="relative error rms 1.4% at theta=-0.24, 2.3% at -0.14, max "
               "5.6% over 20 seeds (std 2.2% and 4.1% in an earlier 20-seed "
               "measurement); one seed per sweep",
        min_estimates=11, block=11),
    PentaSLQ(
        name="penta-slq",
        why="n=1e5 pentadiagonal, SLQ m_l=40 n_v=10: loads the SLQ path "
            "(full reorthogonalisation); bypasses leja, divdiff, action, "
            "spectral; tol 2e-8 (MC rms 2.4e-9)",
        tol=2e-8,
        spread="relative error rms 2.4e-9, max 6.6e-9 over 20 seeds",
        min_estimates=4),
)}

# The workloads BENCHMARK.json lists.  lattice-scan runs by name only: its
# estimate time (Lanczos and CG over 128 KB vectors, Python-level loops)
# follows the speed of the shared host about 1.5 times as strongly as the
# others, and its 10-seed spread reached the 0.25 bound, so the benchmark's
# time budget goes to longer runs of the other three instead.
BENCHMARKED = ("penta-1e6", "lattice-300", "penta-slq")
