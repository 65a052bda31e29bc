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

A quadratic form v' P(Q) v needs no P v.  The iterates w_k = omega_k v,
with omega_k(xi) = prod_{i<k} (xi - xi_i), give v' omega_k^2 v = ||w_k||^2
and v' omega_k omega_{k+1} v = w_k' w_{k+1}, and omega_k^2 and
omega_k omega_{k+1} are the Newton basis polynomials b_{2k} and b_{2k+1}
of the doubled sequence eta = (xi_0, xi_0, xi_1, xi_1, ...) (the kernel
polynomial method's doubling; Weisse, Wellein, Alvermann and Fehske, Rev.
Mod. Phys. 2006).  With e the divided differences on eta, k products of
the same recursion therefore give the form of the degree-2k interpolant:

    F_0 = e_0 ||v||^2,
    F_k = F_{k-1} + e_{2k-1} w_{k-1}' w_k + e_{2k} ||w_k||^2,

two dot products and no axpy per product.  The terms decay like rho^2 per
product, with rho = (sqrt(kappa) - 1) / (sqrt(kappa) + 1) the convergence
factor of log on an interval of condition kappa, so the rest of the sum
is about the last two terms times tail = 1 / (1 - rho^2) = (sqrt(kappa) +
1)^2 / (4 sqrt(kappa)); the form stops once tail times their absolute sum
is at most rtol ||v||^2.  Without the tail factor the bare last terms
under-read the error at large kappa (2.6e-3 against 1e-4 at kappa = 5e3).
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
    """Interpolant value P_m(Q) v, or its quadratic form v' P(Q) v, with
    convergence diagnostics; a form's ``vector`` is None."""

    vector: np.ndarray | None = field(repr=False)
    degree_used: int        # products with Q
    error_estimate: float
    matvecs: int
    converged: bool
    error_history: np.ndarray = field(repr=False, default=None)
    form: float | None = None


def log_matvec(Q: SparseMatrixCSR, v: np.ndarray, dd: DividedDiffs,
               rtol: float, *, form: bool = False) -> ActionResult:
    """Approximate log(Q) v, or with ``form`` v' log(Q) v, to relative
    tolerance ``rtol``.

    The map z = c + gamma * xi is that of ``dd.interval``.  The action stops
    at the first degree m with e_m = |d_m| * ||w_m|| <= rtol * ||v||_2 or,
    with ``converged=False``, at the last coefficient of ``dd``: the table
    is the degree cap, and the caller decides whether the reached
    ``error_estimate`` is acceptable.  If the interval is a single point c
    (gamma = 0) the result is d_0 v (a form: d_0 ||v||_2^2) at degree zero.

    With ``form``, ``dd`` holds the divided differences on the doubled
    sequence (``dd.nodes[2k] == dd.nodes[2k + 1]``), the recursion runs on
    its nodes ``dd.nodes[::2]``, and the result's ``form`` is v' P(Q) v for
    the interpolant of degree 2k after k products; it stops once the
    module docstring's tail estimate is at most rtol * ||v||_2^2, or after
    (len(dd) - 1) // 2 products.
    """
    if not rtol >= 0:       # NaN too: it would stop at once
        raise ValueError("rtol must be non-negative")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (Q.n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({Q.n},)")
    coeffs = dd.coeffs
    c, gamma = dd.interval.c, dd.interval.gamma
    norm_sq = ddot(v, v)
    if gamma == 0.0:
        return ActionResult(vector=None if form else coeffs[0] * v, degree_used=0,
                            error_estimate=0.0, matvecs=0, converged=True,
                            error_history=np.zeros(1),
                            form=float(coeffs[0] * norm_sq) if form else None)

    m_sp = Q.to_scipy()
    inv_gamma = 1.0 / gamma
    shift = c * inv_gamma
    w = v
    m = 0
    if form:
        cap = (coeffs.shape[0] - 1) // 2
        xi = dd.nodes[:2 * cap:2]
        if not np.array_equal(xi, dd.nodes[1:2 * cap:2]):
            raise ValueError("a form needs divided differences on the doubled sequence")
        root = math.sqrt(dd.interval.condition)
        tail = (root + 1.0) ** 2 / (4.0 * root)     # 1 / (1 - rho^2)
        total = coeffs[0] * norm_sq
        err = tail * abs(total)
        bound = rtol * norm_sq
    else:
        cap = coeffs.shape[0] - 1
        xi = dd.nodes
        p = coeffs[0] * w
        err = abs(coeffs[0]) * math.sqrt(norm_sq)
        bound = rtol * math.sqrt(norm_sq)
    history = [err]
    converged = True
    while err > bound:
        if m >= cap:
            converged = False
            break
        y = m_sp @ w
        y *= inv_gamma
        y = daxpy(w, y, a=-(shift + xi[m]))     # updates y in place, returns it
        m += 1
        if form:
            cross = coeffs[2 * m - 1] * ddot(w, y)
            square = coeffs[2 * m] * ddot(y, y)
            total += cross + square
            err = tail * (abs(cross) + abs(square))
        else:
            p = daxpy(y, p, a=coeffs[m])
            err = abs(coeffs[m]) * math.sqrt(ddot(y, y))
        w = y
        history.append(err)
        if not np.isfinite(err):
            raise FloatingPointError(f"non-finite iterate at degree {m}")
    return ActionResult(vector=None if form else p, degree_used=m, error_estimate=err,
                        matvecs=m, converged=converged,
                        error_history=np.asarray(history),
                        form=float(total) if form else None)
