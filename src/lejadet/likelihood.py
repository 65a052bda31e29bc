"""Log-likelihood of a lattice field sample over a grid of the coupling theta."""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .logdet import estimate
from .oracle import band_cholesky
from .sparse import check_lattice_theta, gen_gmrf_grid

__all__ = ["gmrf_likelihood_scan"]
_DEFAULT = estimate.__kwdefaults__      # the estimator defaults have one home


def _sample_field(g: int, theta: float, seed: int) -> np.ndarray:
    """x = L^{-T} z, z standard normal, for the banded factor Q(theta) = LL'."""
    chol = band_cholesky(gen_gmrf_grid(g, theta), g)
    z = np.random.default_rng(seed).standard_normal(g * g)
    return dtbtrs(chol, z, uplo="L", trans="T", overwrite_b=True)[0]


def gmrf_likelihood_scan(g: int, theta_true: float, thetas, seed: int = _DEFAULT["seed"],
                         m_vec: int = _DEFAULT["queries"], tol: float = _DEFAULT["tol"],
                         max_degree: int = _DEFAULT["max_degree"],
                         sample: bool = True) -> dict:
    """Log-likelihood curve of a lattice field sample over a theta grid.

    Draws one sample x with precision Q(theta_true) through its banded
    Cholesky factor (bandwidth g, O(g^4) work; the storage guard of
    ``band_cholesky`` refuses g >= 585), then for each theta evaluates

        loglik = (logdet_est(Q(theta)) - x' Q(theta) x - n log(2 pi)) / 2

    with the Leja/Hutch++ estimator for the log-determinant term.  One
    estimator seed is reused across the whole grid (common random numbers),
    so estimation noise shifts the curve smoothly instead of scrambling the
    argmax.  With ``sample=False`` only the log-determinant column is
    produced and no factor is formed.
    """
    thetas = [float(t) for t in thetas]
    for t in thetas + [theta_true]:
        check_lattice_theta(t)
    n = g * g
    x = _sample_field(g, theta_true, seed) if sample else None
    rows = []
    warn_count = 0
    for theta in thetas:
        Q = gen_gmrf_grid(g, theta)
        report = estimate(Q, "leja-hutchpp", queries=m_vec, tol=tol, seed=seed,
                          max_degree=max_degree)
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
                   "queries": m_vec, "tol": tol, "sample": sample},
        "rows": rows,
        "warnings": warn_count,
    }
