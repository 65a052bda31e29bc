"""Log-likelihood of a lattice field sample over a grid of the coupling theta."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .logdet import estimate
from .sparse import gen_gmrf_grid

__all__ = ["gmrf_likelihood_scan"]

SAMPLING_GRID_CAP = 64


def gmrf_likelihood_scan(g: int, theta_true: float, thetas, seed: int = 0,
                         m_vec: int = 12, tol: float = 1e-7, scaling="center",
                         max_degree: int = 400, sample: bool = True,
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
        report = estimate(Q, "leja-hutchpp", queries=m_vec, tol=tol, scaling=scaling,
                          bounds=bounds_method, seed=seed, max_degree=max_degree)
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
