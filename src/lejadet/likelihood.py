"""Log-likelihood of a lattice field sample over a grid of the coupling theta."""

from __future__ import annotations

import math

import numpy as np

from .logdet import estimate
from .oracle import lattice_eigenvalues
from .sparse import _checked_seed, check_lattice, gen_gmrf_grid

__all__ = ["gmrf_likelihood_scan"]
_DEFAULT = estimate.__kwdefaults__      # the estimator defaults have one home


def _sample_field(g: int, theta: float, seed: int) -> np.ndarray:
    """A draw of N(0, Q(theta)^{-1}) in O(n log n): Q = S diag(lam) S, with lam from
    ``lattice_eigenvalues`` and S the orthonormal 2-D type-I sine transform (S S = I),
    so x = S(lam^{-1/2} * z), z a g-by-g standard normal draw of ``default_rng(seed)``."""
    from scipy.fft import dstn      # here, so `import lejadet` does not load scipy.fft
    lam = lattice_eigenvalues(g, theta)
    z = np.random.default_rng(seed).standard_normal((g, g))
    return dstn(z / np.sqrt(lam), type=1, norm="ortho").ravel()


def gmrf_likelihood_scan(g: int, theta_true: float, thetas, seed: int = _DEFAULT["seed"],
                         m_vec: int = _DEFAULT["queries"], tol: float = _DEFAULT["tol"],
                         max_degree: int = _DEFAULT["max_degree"]) -> dict:
    """Log-likelihood curve of a lattice field sample over a theta grid.

    Draws one sample x with precision Q(theta_true) by a sine transform
    (``_sample_field``, any grid side), then for each theta evaluates

        loglik = (logdet_est(Q(theta)) - x' Q(theta) x - n log(2 pi)) / 2

    with the Leja/Hutch++ estimator for the log-determinant term.  One
    estimator seed is reused across the whole grid (common random numbers),
    so estimation noise shifts the curve smoothly instead of scrambling the
    argmax.  The seed, by ``estimate``'s rule, and each lattice, by
    ``check_lattice``, are checked before the draw.
    """
    seed = _checked_seed(seed)
    thetas = [float(t) for t in thetas]
    for t in thetas + [theta_true]:
        check_lattice(g, t)
    x = _sample_field(g, theta_true, seed)
    rows = []
    warn_count = 0
    for theta in thetas:
        Q = gen_gmrf_grid(g, theta)
        report = estimate(Q, "leja-hutchpp", queries=m_vec, tol=tol, seed=seed,
                          max_degree=max_degree)
        warn_count += len(report.warnings)
        quad = float(x @ (Q.to_scipy() @ x))
        loglik = 0.5 * (report.estimate - quad - x.size * math.log(2.0 * math.pi))
        rows.append({"theta": theta, "logdet_est": report.estimate, "loglik": loglik,
                     "quadform": quad})
    return {
        "config": {"g": g, "theta_true": theta_true, "thetas": thetas, "seed": seed,
                   "queries": m_vec, "tol": tol},
        "rows": rows,
        "warnings": warn_count,
    }
