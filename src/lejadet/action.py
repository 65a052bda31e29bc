"""Action of the matrix logarithm on a vector by Newton-Leja interpolation.

The degree-m interpolant is accumulated incrementally in the
xi-coordinates of the map z = c + gamma * xi, whose c and gamma are those
of the interval the divided differences were computed on:

    w_0 = v,  P_0 = d_0 w_0,
    w_{m+1} = Q w_m / gamma - (c / gamma + xi_m) w_m,
    P_{m+1} = P_m + d_{m+1} w_{m+1},

which is ((Q - c I)/gamma - xi_m I) w_m with the two shifts folded into
one scalar.  Each degree costs one sparse product, whose fresh output
becomes the next iterate, and in-place level-1 updates on it: a scaling
by 1/gamma, one axpy for the shift, one axpy into P and one norm.  No
other vector is allocated per degree, and the input is never written.
Dividing out gamma each step pairs with the coefficients produced by the
divided-difference module and keeps the iterate norms from over- or
underflowing.  The a-posteriori indicator e_m = |d_m| * ||w_m||_2
estimates the next correction and, relative to ||v||_2, drives the stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from .divdiff import DividedDiffs
from .sparse import SparseMatrixCSR

__all__ = ["ActionResult", "log_matvec"]


@dataclass
class ActionResult:
    """Interpolant value P_m(Q) v with convergence diagnostics."""

    vector: np.ndarray = field(repr=False)
    degree_used: int
    error_estimate: float
    matvecs: int
    converged: bool
    error_history: np.ndarray = field(repr=False, default=None)


def log_matvec(Q: SparseMatrixCSR, v: np.ndarray, dd: DividedDiffs,
               rtol: float) -> ActionResult:
    """Approximate log(Q) v to relative tolerance ``rtol``.

    The map z = c + gamma * xi is that of ``dd.interval``.  The action stops
    at the first degree m with e_m = |d_m| * ||w_m|| <= rtol * ||v||_2 or,
    with ``converged=False``, at the last coefficient of ``dd``: the table
    is the degree cap, and the caller decides whether the reached
    ``error_estimate`` is acceptable.  If the interval is a single point c
    (gamma = 0) the result is d_0 v at degree zero.
    """
    if not rtol >= 0:       # NaN too: it would stop at once
        raise ValueError("rtol must be non-negative")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (Q.n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({Q.n},)")
    coeffs = dd.coeffs
    c, gamma = dd.interval.c, dd.interval.gamma
    if gamma == 0.0:
        return ActionResult(vector=coeffs[0] * v, degree_used=0, error_estimate=0.0,
                            matvecs=0, converged=True, error_history=np.zeros(1))

    norm = math.sqrt(ddot(v, v))
    m_sp = Q.to_scipy()
    xi = dd.nodes
    cap = coeffs.shape[0] - 1
    inv_gamma = 1.0 / gamma
    shift = c * inv_gamma

    w = v
    p = coeffs[0] * w
    m = 0
    err = abs(coeffs[0]) * norm
    history = [err]
    converged = True
    while err > rtol * norm:
        if m >= cap:
            converged = False
            break
        y = m_sp @ w
        y *= inv_gamma
        w = daxpy(w, y, a=-(shift + xi[m]))     # updates y in place, returns it
        m += 1
        p = daxpy(w, p, a=coeffs[m])
        err = abs(coeffs[m]) * math.sqrt(ddot(w, w))
        history.append(err)
        if not np.isfinite(err):
            raise FloatingPointError(f"non-finite iterate at degree {m}")
    return ActionResult(vector=p, degree_used=m, error_estimate=err,
                        matvecs=m, converged=converged,
                        error_history=np.asarray(history))
