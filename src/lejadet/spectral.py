"""Spectral interval estimation and the affine map onto [-2, 2].

Two routes are provided for the enclosing interval [lambda_min, lambda_max]:

- Gershgorin circles: one pass over stored entries, always an enclosure,
  but possibly loose; a negative lower bound is replaced by a small
  positive floor.
- Lanczos for lambda_max and shift-inverted Lanczos (shift 0, inner solves
  by conjugate gradients) for lambda_min; tighter but costs matvecs.
  ``estimate_interval`` takes it when Gershgorin's condition number exceeds
  1e4: at the default action tolerance, Leja actions on an interval of
  condition 1e4 need degree 345-371 and reach the cap of 400 by 1.5e4.
  When the lambda_max run stops unconverged, Gershgorin's upper bound
  replaces its Ritz value.

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

# rows per block of the Gershgorin row sums; the block's |values| stay small
_GERSHGORIN_ROWS = 4096
# Gershgorin's lower bound is floored at this fraction of its upper bound
_FLOOR = 1e-8
# estimate_interval keeps Gershgorin's interval up to this condition number
_GERSHGORIN_KAPPA = 1e4
# relative widening of the Lanczos route's ends; its CG solves run to a tenth
_MARGIN = 1e-5


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
    method: str | None = None     # the route that found it; None if given
    matvecs: int = 0              # products with Q the route spent

    def __post_init__(self):
        # NaN fails the comparisons, and an infinite lambda_min needs an infinite max
        if not (np.isfinite(self.lambda_max) and 0 < self.lambda_min <= self.lambda_max):
            raise ValueError(f"need finite 0 < lambda_min <= lambda_max, got "
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


def map_params(interval: SpectralInterval) -> MapParams:
    """c = (lambda_min + lambda_max) / 2, gamma = (lambda_max - lambda_min) / 4."""
    c = (interval.lambda_min + interval.lambda_max) / 2.0
    gamma = (interval.lambda_max - interval.lambda_min) / 4.0
    return MapParams(c=c, gamma=gamma)


def gershgorin_bounds(Q: SparseMatrixCSR) -> SpectralInterval:
    """Gershgorin circle enclosure from diagonal entries and row radii.

    lambda_max = max_i (a_ii + r_i) and lambda_min = min_i (a_ii - r_i) with
    r_i the sum of off-diagonal magnitudes in row i.  The lower bound is
    floored at 1e-8 * lambda_max since the circles may dip below zero even
    for SPD input.
    """
    if not Q.symmetric_verified:
        raise ValueError("Gershgorin bounds require a verified-symmetric matrix")
    m = Q.to_scipy()
    n = Q.n
    diag = m.diagonal()
    # row sums of |Q|, one block of rows at a time: |values| of the block go
    # into one reusable buffer, and a product of the block (sharing Q's
    # column indices) with ones sums each row in storage order
    radius = np.empty(n)
    ones = np.ones(n)
    indptr = m.indptr
    buf = np.empty(0)
    for r0 in range(0, n, _GERSHGORIN_ROWS):
        r1 = min(r0 + _GERSHGORIN_ROWS, n)
        lo, hi = int(indptr[r0]), int(indptr[r1])
        if buf.shape[0] < hi - lo:
            buf = np.empty(hi - lo)
        vals = np.abs(m.data[lo:hi], out=buf[:hi - lo])
        block = sp.csr_matrix((vals, m.indices[lo:hi], indptr[r0:r1 + 1] - lo),
                              shape=(r1 - r0, n), copy=False)
        radius[r0:r1] = block @ ones
    del ones
    scratch = np.abs(diag)
    radius -= scratch
    lambda_max = float(np.max(np.add(diag, radius, out=scratch)))
    if lambda_max <= 0:
        raise ValueError("Gershgorin upper bound is not positive; matrix is not SPD")
    lambda_min = max(_FLOOR * lambda_max,
                     float(np.min(np.subtract(diag, radius, out=scratch))))
    return SpectralInterval(lambda_min, lambda_max, method="gershgorin")


class EigenEstimate(NamedTuple):
    """Extreme-eigenvalue estimate with iteration diagnostics."""

    value: float
    iterations: int
    converged: bool
    breakdown: bool = False
    matvecs: int = 0          # products with Q; CG iterations for shift-invert


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
            return EigenEstimate(ritz, it, converged=True, matvecs=it)
        ritz_prev = ritz
        beta = float(np.linalg.norm(w))
        if beta <= 1e-12 * max(map(abs, alphas)):
            return EigenEstimate(ritz, it, converged=True, breakdown=True, matvecs=it)
        betas.append(beta)
        v_prev = v
        v = w / beta
    return EigenEstimate(ritz, max_iter, converged=False, matvecs=max_iter)


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
        pap = float(p @ ap)
        if pap <= 0.0:
            raise ValueError(f"matrix is not positive definite (CG found p'Ap = {pap:.3e})")
        alpha = rs / pap
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
    return _shift_invert(Q, tol, tol / 10.0, max_iter, seed, cg_max_iter)


def _shift_invert(Q, tol, cg_rtol, max_iter=200, seed=0, cg_max_iter=None):
    """``shift_invert_lambda_min`` with CG solves to relative residual cg_rtol."""
    m = Q.to_scipy()
    if cg_max_iter is None:
        cg_max_iter = max(500, min(Q.n, 20_000))
    rng = np.random.default_rng(seed)
    cg_iters = []

    def apply_inv(x):
        sol, it = _cg_solve(m, x, rtol=cg_rtol, max_iter=cg_max_iter)
        cg_iters.append(it)
        return sol

    est = _lanczos_extreme(apply_inv, Q.n, rng, tol, max_iter)
    return est._replace(value=1.0 / est.value, matvecs=sum(cg_iters))


def estimate_interval(Q: SparseMatrixCSR, method: str | None = None,
                      seed: int = 0) -> SpectralInterval:
    """Spectral interval of Q by the rule in the module docstring.

    ``method`` ("gershgorin" or "lanczos") forces a route; ``seed`` seeds
    Lanczos.  The interval records its route and matvecs.
    """
    if method not in (None, "gershgorin", "lanczos"):
        raise ValueError(f"unknown bounds method {method!r}")
    interval = gershgorin_bounds(Q)
    if method == "gershgorin" or (method is None
                                  and interval.condition <= _GERSHGORIN_KAPPA):
        return interval
    # Ritz values lie inside the spectrum, so both ends are widened; an
    # unconverged Ritz value can sit further in, so Gershgorin's bound stands
    hi = lanczos_lambda_max(Q, tol=1e-8, seed=seed)
    lo = _shift_invert(Q, 1e-8, _MARGIN / 10.0, seed=seed)
    lambda_max = hi.value * (1.0 + _MARGIN) if hi.converged else interval.lambda_max
    return SpectralInterval(lo.value * (1.0 - _MARGIN), lambda_max,
                            method="lanczos", matvecs=hi.matvecs + lo.matvecs)
