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

two dot products and no axpy per product.

The same two inner products are the modified moments nu_{2k-1} and
nu_{2k} of the probe's spectral measure in the Newton basis of eta; the
modified Chebyshev algorithm (``quadrature.ModifiedChebyshev``) turns each
into the next recurrence coefficient in O(k) flops, holding no vector,
and the form stops once their Gauss-Radau bracket (``quadrature.Bracket``)
with a node fixed at xi = -2, the interval's lower end, is at most rtol
||v||^2 wide.  That map loses accuracy when the measure crowds one end of
the interval (Gautschi, SISC 1982).  Where its recursion breaks down (a
beta_k at rounding level or a non-finite coefficient) or its bracket ends,
a Gauss node below the interval included, the form hands its probe to
plain Lanczos from v (``quadrature._lanczos_quadrature``) with the same
node and bound for the rest of the cap's products.  Its Ritz values stay
in the spectrum's hull to rounding, so one below the interval refuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from .divdiff import DividedDiffs
from .quadrature import Bracket, ModifiedChebyshev, _lanczos_quadrature
from .sparse import SparseMatrixCSR

__all__ = ["ActionResult", "log_matvec"]


@dataclass
class ActionResult:
    """Interpolant value P_m(Q) v, or its quadratic form v' P(Q) v, with
    convergence diagnostics; a form's ``vector`` and ``error_history`` are
    None."""

    vector: np.ndarray | None = field(repr=False)
    degree_used: int        # products with Q
    error_estimate: float
    matvecs: int
    converged: bool
    error_history: np.ndarray = field(repr=False, default=None)
    form: float | None = None
    # how a form was governed: "bracket" if it stopped on its moments'
    # Gauss-Radau bracket, "lanczos" if its moments broke down and Lanczos
    # took its probe over; None for a vector action and for a form that did
    # neither
    stop: str | None = None


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
    its nodes ``dd.nodes[::2]``, and the result's ``form`` is the midpoint
    of the Gauss-Radau bracket on v' log(Q) v once the bracket is at most
    rtol * ||v||_2^2 wide, its moments' or, where they break down,
    Lanczos's, or else v' P(Q) v for the interpolant of degree 2k after the
    cap's k = (len(dd) - 1) // 2 products (the module docstring).  A Ritz
    value below the interval refuses it with a ``ValueError``.  A zero v
    gives 0 at degree zero.
    """
    if not rtol >= 0:       # NaN too: it would stop at once
        raise ValueError("rtol must be non-negative")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (Q.n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({Q.n},)")
    coeffs = dd.coeffs
    norm_sq = ddot(v, v)
    if dd.interval.gamma == 0.0 or norm_sq == 0.0:
        return ActionResult(vector=None if form else coeffs[0] * v, degree_used=0,
                            error_estimate=0.0, matvecs=0, converged=True,
                            error_history=None if form else np.zeros(1),
                            form=float(coeffs[0] * norm_sq) if form else None)

    m_sp = Q.to_scipy()
    inv_gamma = 1.0 / dd.interval.gamma
    shift = dd.interval.c * inv_gamma

    def step(w, node):
        """((Q - c I) / gamma - node I) w, in the product's fresh output."""
        y = m_sp @ w
        y *= inv_gamma
        return daxpy(w, y, a=-(shift + node))     # updates y in place, returns it

    if form:
        return _form(m_sp, step, v, norm_sq, dd, rtol)
    cap = coeffs.shape[0] - 1
    p = coeffs[0] * v
    bound = rtol * math.sqrt(norm_sq)
    err = abs(coeffs[0]) * math.sqrt(norm_sq)
    history = [err]
    w = v
    m = 0
    converged = True
    while err > bound:
        if m >= cap:
            converged = False
            break
        w = step(w, dd.nodes[m])
        m += 1
        p = daxpy(w, p, a=coeffs[m])
        err = abs(coeffs[m]) * math.sqrt(ddot(w, w))
        history.append(err)
        if not np.isfinite(err):
            raise FloatingPointError(f"non-finite iterate at degree {m}")
    return ActionResult(vector=p, degree_used=m, error_estimate=err, matvecs=m,
                        converged=converged, error_history=np.asarray(history))


def _form(m_sp, step, v, norm_sq, dd, rtol):
    """v' P(Q) v on the doubled sequence, stopped on a Gauss-Radau bracket
    (module docstring): its midpoint, with half its width as the
    ``error_estimate``, or 0 after a Lanczos breakdown, whose Gauss rule is
    exact.  At rtol 0 no rule is solved.  A form the cap stops is the
    interpolant's, with the last half-width (|d_0| ||v||^2 before any), or
    Lanczos's Gauss rule, within its last width (inf before any).
    """
    coeffs, iv = dd.coeffs, dd.interval
    cap = (coeffs.shape[0] - 1) // 2
    xi = dd.nodes[:2 * cap:2]
    if not np.array_equal(xi, dd.nodes[1:2 * cap:2]):
        raise ValueError("a form needs divided differences on the doubled sequence")
    total = coeffs[0] * norm_sq
    err = abs(total)
    bound = rtol * norm_sq
    # the rules integrate log z; P interpolates log z - log(z_0) + d_0
    offset = norm_sq * (coeffs[0] - math.log(iv.c + iv.gamma * dd.nodes[0]))
    moments = ModifiedChebyshev(dd.nodes.tolist())
    moments.add(norm_sq)        # beta_0 = ||v||^2 > 0
    bracket = Bracket(-2.0, bound, iv.c, iv.gamma)
    stop, converged = None, False
    w, m = v, 0
    while m < cap:
        y = step(w, xi[m])
        m += 1
        cross, square = ddot(w, y), ddot(y, y)
        w = y
        total += coeffs[2 * m - 1] * cross + coeffs[2 * m] * square
        if not math.isfinite(total):
            raise FloatingPointError(f"non-finite iterate at degree {m}")
        if rtol == 0:
            continue
        if moments.add(cross) and moments.add(square):
            if m != bracket.due and m != cap:
                continue
            midpoint = bracket.check(moments.betas[0], moments.alphas, moments.betas[1:])
            if midpoint is not None:
                total, err, stop = midpoint + offset, 0.5 * bracket.width, "bracket"
                converged = True
                break
            if bracket.due is not None:
                err = 0.5 * bracket.width
                continue
        if m < cap:
            del w, y
            value, steps, half, width = _lanczos_quadrature(
                m_sp, v, cap - m, iv.lambda_min, bound, iv.lambda_max)
            # a breakdown before the cap leaves an exact Gauss rule
            converged = half is not None or steps < cap - m
            err = half if half is not None else 0.0 if converged else width or math.inf
            total, m, stop = value + offset, m + steps, "lanczos"
        break
    return ActionResult(vector=None, degree_used=m, error_estimate=err, matvecs=m,
                        converged=converged, form=float(total), stop=stop)
