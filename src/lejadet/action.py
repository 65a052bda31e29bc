"""Action of the matrix logarithm on a vector by Newton-Leja interpolation.

The degree-m interpolant is accumulated incrementally in the
xi-coordinates of the map z = c + gamma * xi:

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
estimates the next correction and drives the stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from .divdiff import DividedDiffs
from .sparse import SparseMatrixCSR
from .spectral import MapParams

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


def log_matvec(Q: SparseMatrixCSR, v: np.ndarray, mp: MapParams,
               dd: DividedDiffs | None, tol: float | None = None,
               max_degree: int = 400, v_norm: float | None = None) -> ActionResult:
    """Approximate log(Q) v to the requested tolerance.

    ``dd`` must hold divided differences computed for the same map
    parameters.  ``tol`` is the absolute stopping threshold for
    e_m = |d_m| * ||w_m||; the default is 1e-7 * ||v||_2.  A caller that
    has already computed ||v||_2 passes it as ``v_norm``, which saves one
    pass over v (it must be ``sqrt(ddot(v, v))``).  If the map is
    degenerate (gamma = 0, the enclosure is a single point c) the result is
    log(c) * v at degree zero and ``dd`` is not consulted.

    A result with ``converged=False`` means ``max_degree`` (or the end of
    the coefficient sequence) was hit first; the caller decides whether the
    reached ``error_estimate`` is acceptable.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (Q.n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({Q.n},)")
    if v_norm is None:
        v_norm = math.sqrt(ddot(v, v))
    if tol is None:
        tol = 1e-7 * v_norm
    if mp.degenerate:
        out = math.log(mp.c) * v
        return ActionResult(vector=out, degree_used=0, error_estimate=0.0,
                            matvecs=0, converged=True,
                            error_history=np.zeros(1))
    if dd is None:
        raise ValueError("divided differences are required for a non-degenerate map")
    if dd.map_params != mp:
        raise ValueError("divided differences were computed for different map parameters")

    m_sp = Q.to_scipy()
    coeffs = dd.coeffs
    xi = dd.nodes
    cap = min(max_degree, coeffs.shape[0] - 1)
    inv_gamma = 1.0 / mp.gamma
    shift = mp.c * inv_gamma

    w = v
    p = coeffs[0] * w
    m = 0
    err = abs(coeffs[0]) * v_norm
    history = [err]
    converged = True
    while err > tol:
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
