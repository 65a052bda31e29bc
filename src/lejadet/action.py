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
nu_{2k} of the probe's spectral measure in the Newton basis of eta, and
the modified Chebyshev algorithm (``quadrature.ModifiedChebyshev``) turns
each into the next recurrence coefficient of the measure in O(k) flops,
holding no vector.  The form stops on their Gauss-Radau bracket
(``quadrature.Bracket``) with a node fixed at xi = -2, the interval's
lower end, once it is at most rtol ||v||^2 wide.  A Gauss node below
that end proves that the interval misses part of the spectrum, and the
form is refused.

When the moments' recursion breaks down (a beta_k at rounding level or
below, or a non-finite coefficient) or the bracket ends, the form falls
back to the tail rule.  The terms of the sum decay like rho^2 per
product, with rho = (sqrt(kappa) - 1) / (sqrt(kappa) + 1) the convergence
factor of log on an interval of condition kappa, so the rest of the sum
is about the last two terms times tail = 1 / (1 - rho^2) = (sqrt(kappa) +
1)^2 / (4 sqrt(kappa)); the form stops once tail times their absolute sum
is at most rtol ||v||^2.  Without the tail factor the bare last terms
under-read the error at large kappa (2.6e-3 against 1e-4 at kappa = 5e3).
Even so this is an estimate, not a bound: on a log-uniform spectrum of
kappa = 1e3 it stopped 1.2e-6 ||v||^2 off at rtol 1e-7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from .divdiff import DividedDiffs
from .quadrature import Bracket, ModifiedChebyshev
from .sparse import SparseMatrixCSR

__all__ = ["ActionResult", "log_matvec"]

# the rounding allowed a Gauss node of the moments below the interval's lower
# end, relative to its width: one further below refuses the interval.  On
# exact intervals no node fell more than 7e-16 of the width below it; a
# lattice's lower end moved up to twice lambda_min left one 1.5e-2 below it
_NODE_SLACK = math.sqrt(np.finfo(float).eps)


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
    # how a form was governed: "bracket" if it stopped on its Gauss-Radau
    # bracket, "tail" if its moments broke down and the tail rule took over;
    # None for a vector action and for a form that did neither
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
    rtol * ||v||_2^2 wide, or v' P(Q) v for the interpolant of degree 2k
    after k products, stopped by the tail rule where the moments broke
    down, or after (len(dd) - 1) // 2 products (the module docstring).  A
    Gauss node below the interval refuses it with a ``ValueError``.
    """
    if not rtol >= 0:       # NaN too: it would stop at once
        raise ValueError("rtol must be non-negative")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (Q.n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({Q.n},)")
    coeffs = dd.coeffs
    norm_sq = ddot(v, v)
    if dd.interval.gamma == 0.0:
        return ActionResult(vector=None if form else coeffs[0] * v, degree_used=0,
                            error_estimate=0.0, matvecs=0, converged=True,
                            error_history=np.zeros(1),
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
        return _form(step, v, norm_sq, dd, rtol)
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


def _form(step, v, norm_sq, dd, rtol):
    """v' P(Q) v on the doubled sequence, stopped on its Gauss-Radau bracket
    or, after a breakdown, on the tail rule (module docstring).

    A form stopped on its bracket returns the midpoint, with half the
    bracket as its ``error_estimate``; ``error_history`` holds the tail
    indicator after every product either way.  At rtol 0 no rule is solved,
    and the form is the interpolant's after the cap's products.
    """
    coeffs, iv = dd.coeffs, dd.interval
    c, gamma = iv.c, iv.gamma
    cap = (coeffs.shape[0] - 1) // 2
    xi = dd.nodes[:2 * cap:2]
    if not np.array_equal(xi, dd.nodes[1:2 * cap:2]):
        raise ValueError("a form needs divided differences on the doubled sequence")
    root = math.sqrt(iv.condition)
    tail = (root + 1.0) ** 2 / (4.0 * root)     # 1 / (1 - rho^2)
    total = coeffs[0] * norm_sq
    err = tail * abs(total)
    bound = rtol * norm_sq
    # the rules integrate log z; P interpolates log z - log(z_0) + d_0
    offset = norm_sq * (coeffs[0] - math.log(c + gamma * dd.nodes[0]))
    moments = ModifiedChebyshev(dd.nodes.tolist()) if rtol > 0 else None
    bracket = Bracket(-2.0, bound, c, gamma)
    stop = None
    if moments is not None and not moments.add(norm_sq):
        moments, stop = None, "tail"
    history = [err]
    converged = True
    w = v
    m = 0
    while moments is not None or err > bound:     # the tail rule stops a form it governs
        if m >= cap:
            converged = False
            break
        y = step(w, xi[m])
        m += 1
        cross, square = ddot(w, y), ddot(y, y)
        w = y
        terms = coeffs[2 * m - 1] * cross, coeffs[2 * m] * square
        total += terms[0] + terms[1]
        err = tail * (abs(terms[0]) + abs(terms[1]))
        history.append(err)
        if not np.isfinite(err):
            raise FloatingPointError(f"non-finite iterate at degree {m}")
        if moments is None:
            continue
        if not (moments.add(cross) and moments.add(square)):
            moments, stop = None, "tail"
            continue
        if m != bracket.due and m != cap:
            continue
        midpoint = bracket.check(moments.betas[0], moments.alphas, moments.betas[1:])
        gauss = bracket.gauss
        if gauss is not None and gauss.lowest < iv.lambda_min - _NODE_SLACK * 4.0 * gamma:
            raise ValueError(
                f"a Gauss node of the probe's moments lies at {gauss.lowest:.6g}, below "
                f"the interval [{iv.lambda_min:.6g}, {iv.lambda_max:.6g}]: it does "
                f"not enclose the spectrum")
        if midpoint is not None:
            total, err, stop = midpoint + offset, 0.5 * bracket.width, "bracket"
            break
        if bracket.due is None:
            moments, stop = None, "tail"
    return ActionResult(vector=None, degree_used=m, error_estimate=err, matvecs=m,
                        converged=converged, error_history=np.asarray(history),
                        form=float(total), stop=stop)
