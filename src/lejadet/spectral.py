"""Spectral interval estimation; the interval also carries the map onto [-2, 2].

Two routes are provided for the enclosing interval [lambda_min, lambda_max]:

- Gershgorin circles: the extremes the matrix took at construction in one
  pass over its stored entries (see ``SparseMatrixCSR``), so no work per
  call; always an enclosure, but possibly loose; a negative lower bound is
  replaced by a small positive floor.
- Lanczos for lambda_max and shift-inverted Lanczos (shift 0, inner solves
  by conjugate gradients) for lambda_min; tighter but costs matvecs.
  Both runs step ``_lanczos``, the recurrence that SLQ (``logdet``) steps.
  ``estimate_interval`` takes it when Gershgorin's condition number exceeds
  1e4: at the default action tolerance, Leja actions on an interval of
  condition 1e4 need degree 345-371 and reach the cap of 400 by 1.5e4.
  When the lambda_max run stops unconverged, or its Ritz value comes
  within 1e-3 of Gershgorin's upper bound, that bound replaces it.

The interval's ``c`` and ``gamma`` place its endpoints at the images of -2
and +2: z = c + gamma * xi with c the midpoint and gamma a quarter of the
width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.blas import daxpy, ddot, dscal

from .sparse import SparseMatrixCSR

__all__ = [
    "SpectralInterval",
    "EigenEstimate",
    "ConvergenceError",
    "gershgorin_bounds",
    "lanczos_lambda_max",
    "shift_invert_lambda_min",
    "estimate_interval",
]

# Gershgorin's lower bound is floored at this fraction of its upper bound
_FLOOR = 1e-8
# estimate_interval keeps Gershgorin's interval up to this condition number
_GERSHGORIN_KAPPA = 1e4
# relative widening of the Lanczos route's ends; its CG solves run to a tenth
_MARGIN = 1e-5
# the lambda_max run stops at this relative distance below Gershgorin's bound
_NEAR_GERSHGORIN = 1e-3


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
        # NaN fails the comparisons; a finite sum of the ends is a finite centre c
        if not (np.isfinite(self.lambda_min + self.lambda_max)
                and 0 < self.lambda_min <= self.lambda_max):
            raise ValueError(f"need finite 0 < lambda_min <= lambda_max, got "
                             f"[{self.lambda_min}, {self.lambda_max}]")

    @property
    def condition(self) -> float:
        return self.lambda_max / self.lambda_min

    @property
    def c(self) -> float:
        """Centre of the map z = c + gamma * xi from [-2, 2]: the midpoint."""
        return (self.lambda_min + self.lambda_max) / 2.0

    @property
    def gamma(self) -> float:
        """Scale of the map: a quarter of the width, 0 for a single point."""
        return (self.lambda_max - self.lambda_min) / 4.0


def gershgorin_bounds(Q: SparseMatrixCSR) -> SpectralInterval:
    """Gershgorin circle enclosure from diagonal entries and row radii.

    lambda_max = max_i (a_ii + r_i) and lambda_min = min_i (a_ii - r_i) with
    r_i the sum of off-diagonal magnitudes in row i.  Q is symmetric by
    construction (``SparseMatrixCSR`` refuses anything else), so its spectrum
    is real and lies in the union of the intervals a_ii +- r_i.  The lower
    bound is floored at 1e-8 * lambda_max since the circles may dip below
    zero even for SPD input.

    Both extremes are read from ``Q.gershgorin``, which the matrix takes
    once at construction, so this makes no pass over the entries.
    """
    lambda_min, lambda_max = Q.gershgorin
    if lambda_max <= 0:
        raise ValueError("Gershgorin upper bound is not positive; matrix is not SPD")
    return SpectralInterval(max(_FLOOR * lambda_max, lambda_min), lambda_max,
                            method="gershgorin")


class EigenEstimate(NamedTuple):
    """Extreme-eigenvalue estimate with iteration diagnostics."""

    value: float
    iterations: int
    converged: bool
    breakdown: bool = False
    matvecs: int = 0          # products with Q; CG iterations for shift-invert


def _lanczos(apply, v, steps):
    """Plain Lanczos from ``v``, without reorthogonalization: lejadet's one
    three-term recurrence.

    Yields the tridiagonal (alphas[:j], betas[:j]) once the alpha of step j
    and the beta_j that follows it are known, before product j + 1, for at
    most ``steps`` steps: the leading j x j block is alphas with
    betas[:j - 1], and betas[j - 1] couples it to step j + 1.  On
    breakdown, beta_j <= 1e-12 max|alpha|, a rule relative to the
    operator's scale, it yields (alphas[:j], betas[:j - 1]) instead and
    returns True; it returns False once ``steps`` run out.

    The run holds q_{j-1} and q_j in a ring of two columns, overwriting
    q_{j-1} once the update has read it, and frees ``v`` once normalized and
    each product (a new array from ``apply``) once read.  It calls scipy's
    BLAS only: alternating numpy's and scipy's OpenBLAS thread pools stalls
    both when BLAS threads are not pinned.
    """
    ring = np.empty((v.shape[0], 2), order="F")     # q_j is column j % 2
    np.divide(v, np.sqrt(ddot(v, v)), out=ring[:, 0])
    del v
    alphas, betas = np.empty((2, steps))
    for j in range(steps):
        q = ring[:, j % 2]
        w = apply(q)
        alphas[j] = ddot(q, w)
        w = daxpy(q, w, a=-alphas[j])
        if j > 0:
            w = daxpy(ring[:, (j - 1) % 2], w, a=-betas[j - 1])
        b = np.sqrt(ddot(w, w))
        if b <= 1e-12 * np.max(np.abs(alphas[:j + 1])):
            yield alphas[:j + 1], betas[:j]
            return True
        betas[j] = b
        yield alphas[:j + 1], betas[:j + 1]
        np.divide(w, b, out=ring[:, (j + 1) % 2])
        del w
    return False


def _lanczos_extreme(apply_op, n, rng, tol, max_iter, ceiling=np.inf):
    """Largest Ritz value of a symmetric operator by ``_lanczos`` from a random
    start: converged once it changes by at most ``tol`` relatively between
    steps or on breakdown, unconverged at or above ``ceiling`` or after
    ``max_iter`` steps.  Extreme Ritz values need no reorthogonalization
    over runs this short.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    lanczos = _lanczos(apply_op, rng.standard_normal(n), max_iter)
    ritz_prev = None
    while True:
        try:
            alphas, betas = next(lanczos)
        except StopIteration as end:        # end.value: the run broke down
            return EigenEstimate(ritz, it, end.value, breakdown=end.value, matvecs=it)
        it = alphas.shape[0]
        ritz = float(eigvalsh_tridiagonal(alphas, betas[:it - 1], select="i",
                                          select_range=(it - 1, it - 1))[0])
        if ritz_prev is not None and abs(ritz - ritz_prev) <= tol * max(abs(ritz), 1e-300):
            return EigenEstimate(ritz, it, converged=True, matvecs=it)
        if ritz >= ceiling:
            return EigenEstimate(ritz, it, converged=False, matvecs=it)
        ritz_prev = ritz


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
    """Conjugate gradients for SPD m; relative residual below rtol or raise.

    m is refused as not positive definite as soon as p'Ap, the step or the
    residual stops being a positive finite number: on a singular m, p'Ap
    falls to rounding level and the step overflows.  The iterate, residual
    and direction are updated in place by scipy's BLAS, as in ``_lanczos``.
    """
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = ddot(r, r)
    bnorm = np.sqrt(rs)
    if bnorm == 0.0:
        return x, 0
    for it in range(max_iter):
        if np.sqrt(rs) <= rtol * bnorm:
            return x, it
        ap = m @ p
        pap = ddot(p, ap)
        # the step leaves (0, inf) when p'Ap is not positive, is not
        # finite, or is so small that rs / p'Ap overflows
        alpha = rs / pap if pap > 0.0 else 0.0
        if not 0.0 < alpha < np.inf:
            raise ValueError("matrix is not positive definite "
                             f"(CG found p'Ap = {pap:.3e})")
        x = daxpy(p, x, a=alpha)
        r = daxpy(ap, r, a=-alpha)
        rs_new = ddot(r, r)
        if not rs_new < np.inf:         # NaN included
            raise ValueError("matrix is not positive definite "
                             f"(CG found r'r = {rs_new:.3e})")
        p = daxpy(r, dscal(rs_new / rs, p))
        rs = rs_new
    if np.sqrt(rs) <= rtol * bnorm:
        return x, max_iter
    raise ConvergenceError(
        f"CG did not converge in {max_iter} iterations", np.sqrt(rs) / bnorm)


def shift_invert_lambda_min(Q: SparseMatrixCSR, tol: float = 1e-8,
                            max_iter: int = 200, seed: int = 0) -> EigenEstimate:
    """Smallest eigenvalue of Q via shift-inverted Lanczos (shift 0): the
    lambda_min solve of ``estimate_interval``.

    Runs Lanczos on B = Q^{-1} until its leading Ritz value changes by at
    most ``tol`` relatively; each product B v is a CG solve of Q x = v to
    relative residual 1e-6, a tenth of the margin the enclosure widens by,
    in max(500, min(n, 20000)) iterations at most.  Returns 1/mu for the
    largest Ritz value mu of B, with the CG iterations as ``matvecs``.
    """
    m = Q.to_scipy()
    rng = np.random.default_rng(seed)
    cg_iters = []

    def apply_inv(x):
        sol, it = _cg_solve(m, x, _MARGIN / 10.0, max(500, min(Q.n, 20_000)))
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
    # unconverged Ritz value can sit further in, so Gershgorin's bound stands,
    # and a Ritz value this close to that bound cannot improve on it much
    m = Q.to_scipy()
    hi = _lanczos_extreme(lambda x: m @ x, Q.n, np.random.default_rng(seed), 1e-8, 200,
                          ceiling=(1.0 - _NEAR_GERSHGORIN) * interval.lambda_max)
    lo = shift_invert_lambda_min(Q, 1e-8, seed=seed)
    lambda_max = hi.value * (1.0 + _MARGIN) if hi.converged else interval.lambda_max
    return SpectralInterval(lo.value * (1.0 - _MARGIN), lambda_max,
                            method="lanczos", matvecs=hi.matvecs + lo.matvecs)
