"""Spectral interval estimation and the affine map onto [-2, 2].

Two routes are provided for the enclosing interval [lambda_min, lambda_max]:

- Gershgorin circles: one pass over stored entries, always an enclosure,
  but possibly loose; a negative lower bound is replaced by a small
  positive floor.
- Lanczos for lambda_max and shift-inverted Lanczos (shift 0, inner solves
  by conjugate gradients) for lambda_min; tighter but costs matvecs.

The map parameters (c, gamma) place the interval endpoints at the images
of -2 and +2: z = c + gamma * xi with c the midpoint and gamma a quarter
of the interval width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigvalsh_tridiagonal

from .sparse import SparseMatrixCSR

__all__ = [
    "SpectralInterval",
    "MapParams",
    "EigenEstimate",
    "ConvergenceError",
    "gershgorin_bounds",
    "lanczos_lambda_max",
    "shift_invert_lambda_min",
    "estimate_interval",
    "map_params",
]


class ConvergenceError(RuntimeError):
    """An iterative solve did not reach its tolerance; carries the residual."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SpectralInterval:
    """Enclosure [lambda_min, lambda_max] of the spectrum of an SPD matrix."""

    lambda_min: float
    lambda_max: float
    method: str = "gershgorin"

    def __post_init__(self):
        if not (np.isfinite(self.lambda_min) and np.isfinite(self.lambda_max)):
            raise ValueError("interval endpoints must be finite")
        if not 0 < self.lambda_min <= self.lambda_max:
            raise ValueError(
                f"need 0 < lambda_min <= lambda_max, got "
                f"[{self.lambda_min}, {self.lambda_max}]")

    @property
    def condition(self) -> float:
        return self.lambda_max / self.lambda_min


@dataclass(frozen=True)
class MapParams:
    """Center c and quarter-width gamma of the affine map from [-2, 2]."""

    c: float
    gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.c) and np.isfinite(self.gamma)) or self.gamma < 0:
            raise ValueError(f"invalid map parameters c={self.c}, gamma={self.gamma}")

    @property
    def degenerate(self) -> bool:
        return self.gamma == 0.0

    @property
    def lambda_min(self) -> float:
        return self.c - 2.0 * self.gamma

    @property
    def lambda_max(self) -> float:
        return self.c + 2.0 * self.gamma


def map_params(interval: SpectralInterval) -> MapParams:
    """c = (lambda_min + lambda_max) / 2, gamma = (lambda_max - lambda_min) / 4."""
    c = (interval.lambda_min + interval.lambda_max) / 2.0
    gamma = (interval.lambda_max - interval.lambda_min) / 4.0
    return MapParams(c=c, gamma=gamma)


def gershgorin_bounds(Q: SparseMatrixCSR, eps_floor: float | None = None) -> SpectralInterval:
    """Gershgorin circle enclosure from diagonal entries and row radii.

    lambda_max = max_i (a_ii + r_i) and lambda_min = min_i (a_ii - r_i) with
    r_i the sum of off-diagonal magnitudes in row i.  The lower bound is
    floored at ``eps_floor`` (default 1e-8 * lambda_max) since the circles
    may dip below zero even for SPD input.
    """
    if not Q.symmetric_verified:
        raise ValueError("Gershgorin bounds require a verified-symmetric matrix")
    m = Q.to_scipy()
    diag = m.diagonal()
    # row sums of |Q|: one product of |Q| (sharing Q's index arrays) with ones
    abs_m = sp.csr_matrix((np.abs(m.data), m.indices, m.indptr), shape=m.shape,
                          copy=False)
    radius = abs_m @ np.ones(Q.n)
    radius -= np.abs(diag)
    lambda_max = float(np.max(diag + radius))
    if lambda_max <= 0:
        raise ValueError("Gershgorin upper bound is not positive; matrix is not SPD")
    if eps_floor is None:
        eps_floor = 1e-8 * lambda_max
    if eps_floor <= 0:
        raise ValueError("eps_floor must be positive")
    lambda_min = max(float(eps_floor), float(np.min(diag - radius)))
    return SpectralInterval(lambda_min, lambda_max, method="gershgorin")


class EigenEstimate(NamedTuple):
    """Extreme-eigenvalue estimate with iteration diagnostics."""

    value: float
    iterations: int
    converged: bool
    breakdown: bool = False


def _lanczos_extreme(apply_op, n, rng, tol, max_iter):
    """Largest Ritz value of a symmetric operator, plain Lanczos.

    No reorthogonalization: extreme Ritz values are robust over the short,
    restart-free runs used here.  Returns an EigenEstimate; a breakdown
    (vanishing Krylov vector) reports the Ritz value reached so far.
    """
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    v_prev = np.zeros(n)
    beta = 0.0
    alphas, betas = [], []
    ritz_prev = None
    for it in range(1, max_iter + 1):
        w = apply_op(v)
        alpha = float(v @ w)
        w = w - alpha * v - beta * v_prev
        alphas.append(alpha)
        ritz = float(eigvalsh_tridiagonal(
            np.asarray(alphas), np.asarray(betas),
            select="i", select_range=(it - 1, it - 1))[0])
        if ritz_prev is not None and abs(ritz - ritz_prev) <= tol * max(abs(ritz), 1e-300):
            return EigenEstimate(ritz, it, converged=True)
        ritz_prev = ritz
        beta = float(np.linalg.norm(w))
        if beta <= 1e-12 * max(map(abs, alphas)):
            return EigenEstimate(ritz, it, converged=True, breakdown=True)
        betas.append(beta)
        v_prev = v
        v = w / beta
    return EigenEstimate(ritz, max_iter, converged=False)


def lanczos_lambda_max(Q: SparseMatrixCSR, tol: float = 1e-10,
                       max_iter: int = 200, seed: int = 0) -> EigenEstimate:
    """Largest eigenvalue of Q via Lanczos.

    Iterates until the leading Ritz value changes by no more than
    ``tol`` relatively between steps, or ``max_iter`` is reached.
    """
    m = Q.to_scipy()
    rng = np.random.default_rng(seed)
    return _lanczos_extreme(lambda x: m @ x, Q.n, rng, tol, max_iter)


def _cg_solve(m, b, rtol, max_iter):
    """Conjugate gradients for SPD m; relative residual below rtol or raise."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    bnorm = np.sqrt(float(b @ b))
    if bnorm == 0.0:
        return x, 0
    for it in range(max_iter):
        if np.sqrt(rs) <= rtol * bnorm:
            return x, it
        ap = m @ p
        alpha = rs / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    if np.sqrt(rs) <= rtol * bnorm:
        return x, max_iter
    raise ConvergenceError(
        f"CG did not converge in {max_iter} iterations", np.sqrt(rs) / bnorm)


def shift_invert_lambda_min(Q: SparseMatrixCSR, tol: float = 1e-8,
                            max_iter: int = 200, seed: int = 0,
                            cg_max_iter: int | None = None) -> EigenEstimate:
    """Smallest eigenvalue of Q via shift-inverted Lanczos (shift 0).

    Runs Lanczos on B = Q^{-1}; each product B v is a CG solve of Q x = v
    to relative residual tol/10.  Returns 1/mu for the largest Ritz value
    mu of B.
    """
    m = Q.to_scipy()
    if cg_max_iter is None:
        cg_max_iter = max(500, min(Q.n, 20_000))
    rng = np.random.default_rng(seed)

    def apply_inv(x):
        sol, _ = _cg_solve(m, x, rtol=tol / 10.0, max_iter=cg_max_iter)
        return sol

    est = _lanczos_extreme(apply_inv, Q.n, rng, tol, max_iter)
    return EigenEstimate(1.0 / est.value, est.iterations, est.converged, est.breakdown)


def estimate_interval(Q: SparseMatrixCSR, method: str = "gershgorin",
                      eps_floor: float | None = None, tol: float = 1e-8,
                      max_iter: int = 200, seed: int = 0) -> SpectralInterval:
    """Spectral interval by the requested method ('gershgorin' or 'lanczos').

    The Lanczos route inflates both ends by a small relative margin so the
    returned interval encloses the spectrum despite Ritz values sitting
    strictly inside it.
    """
    if method == "gershgorin":
        return gershgorin_bounds(Q, eps_floor=eps_floor)
    if method == "lanczos":
        if not Q.symmetric_verified:
            raise ValueError("interval estimation requires a verified-symmetric matrix")
        hi = lanczos_lambda_max(Q, tol=tol, max_iter=max_iter, seed=seed)
        lo = shift_invert_lambda_min(Q, tol=tol, max_iter=max_iter, seed=seed)
        margin = max(tol, 1e-6)
        return SpectralInterval(lo.value * (1.0 - 10.0 * margin),
                                hi.value * (1.0 + 10.0 * margin),
                                method="lanczos")
    raise ValueError(f"unknown bounds method {method!r}")
