"""Gauss and Gauss-Radau rules for v' log(A) v from a Jacobi matrix.

A probe v and a symmetric A define the spectral measure mu = sum_i (u_i'
v)^2 delta_{lambda_i}, whose integral of f is v' f(A) v.  Its Jacobi matrix
J (the recurrence coefficients alpha_j and beta_j of its monic orthogonal
polynomials) gives the k-node Gauss rule beta_0 sum tau_j^2 f(theta_j), with
theta_j the eigenvalues of the leading k x k block and tau_j the first
entries of its eigenvectors (Golub and Welsch, Math. Comp. 1969).  Lanczos
on v builds J directly; ``ModifiedChebyshev`` builds it from the modified
moments nu_l = integral of p_l dmu in a Newton basis p_{l+1} = (x - a_l) p_l
(Gautschi, *Orthogonal Polynomials: Computation and Approximation*, OUP
2004, section 2.1.7), one moment at a time, with no vector.

For log on a measure supported in [a, b] with a > 0, every even derivative
is negative and every odd one positive, so the Gauss rule is an upper bound
on the integral and the Gauss-Radau rule with one node fixed at a is a lower
bound (Golub and Meurant, *Matrices, Moments and Quadrature with
Applications*, 2010): the two bracket v' log(A) v whenever a is at or below
the spectrum.  ``Bracket`` is the one stop rule built on them, for the Leja
forms (``action``) and the Lanczos probes (``_lanczos_quadrature``) of SLQ
and of the forms whose moments break down alike.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import ddot

from .spectral import _lanczos

__all__ = ["Bracket", "GaussRule", "ModifiedChebyshev", "gauss_rule", "radau_rule"]

# a beta_k at or below this ends the recursion: sqrt(eps) times 16, the
# square of the width of [-2, 2], where the nodes lie.  Past the number of
# points of its measure the recursion's betas are rounding (5e-13 and 1e-12
# on an 8-point measure), while on the lattices they stay near 1
_BETA_FLOOR = 16.0 * math.sqrt(np.finfo(float).eps)
# the rounding allowed a Gauss node below the Radau node, relative to the
# largest: on exact intervals the moments' nodes fell at most 7e-16 of the
# width below it, and Ritz values leave the hull by about eps ||A|| (Paige 1980)
_NODE_SLACK = math.sqrt(np.finfo(float).eps)


class GaussRule(NamedTuple):
    """beta_0 sum tau_j^2 log(z_j), its rounding bound and the extreme nodes."""

    value: float
    # steps * eps * beta_0 sum tau_j^2 |log(z_j)|
    rounding: float
    lowest: float
    highest: float


def gauss_rule(beta0_sq, alphas, betas, c=0.0, gamma=1.0):
    """The Gauss rule for log of the tridiagonal with diagonal ``alphas`` and
    squared off-diagonal ``betas``, its nodes mapped by z = c + gamma * theta.

    Returns a ``GaussRule``, or None when the lowest node is within rounding
    of zero, relative to the largest, or below it: the log of such a node
    would pass for a finite one.
    """
    rounding = len(alphas) * np.finfo(float).eps
    theta, vecs = eigh_tridiagonal(alphas, np.sqrt(betas))
    z = c + gamma * theta
    if not z[0] > rounding * z[-1]:     # NaN too
        return None
    tau_sq = vecs[0, :] ** 2
    logs = np.log(z)
    rounding = rounding * beta0_sq * float(tau_sq @ np.abs(logs))
    return GaussRule(beta0_sq * float(tau_sq @ logs), rounding, *z[[0, -1]].tolist())


def radau_rule(beta0_sq, alphas, betas, fixed, c=0.0, gamma=1.0):
    """The (k+1)-node Gauss-Radau rule for log with one node at ``fixed``,
    from the k ``alphas`` and the squared ``betas`` beta_1..beta_k of the
    recurrence, nodes mapped as in ``gauss_rule``.

    Its last diagonal entry is fixed - beta_k / r_k with r_k = p_k / p_{k-1}
    at ``fixed`` (r_1 = fixed - alpha_0, r_{j+1} = fixed - alpha_j -
    beta_j / r_j), which places an eigenvalue at ``fixed`` (Golub and
    Meurant 2010, section 6.2).  Returns None where a pivot r_j is zero,
    where that entry is not finite, and where ``gauss_rule`` does.
    """
    # Python floats, so that a zero pivot raises
    a, b, fixed = [float(x) for x in alphas], [float(x) for x in betas], float(fixed)
    try:
        r = fixed - a[0]
        for alpha, beta in zip(a[1:], b):
            r = fixed - alpha - beta / r
        last = fixed - b[-1] / r
    except ZeroDivisionError:
        return None
    if not math.isfinite(last):
        return None
    return gauss_rule(beta0_sq, a + [last], b, c, gamma)


class Bracket:
    """One probe's Gauss-Radau bracket on the integral of log, and when to
    solve it: the stop rule of the Leja forms and the SLQ probes.

    ``check`` takes the Jacobi matrix of k steps, the k alphas and the
    squared betas beta_1..beta_k, and solves the k-node Gauss rule G, an
    upper bound, and the (k+1)-node Gauss-Radau rule R with a node at
    ``fixed``, a lower bound when ``fixed`` is at or below the spectrum,
    nodes mapped by z = c + gamma * theta.  The bracket closes once |G - R|
    is at most ``bound`` or, with no bound, at most G's and R's rounding
    bounds together; its value is then the midpoint, within half the width
    of the integral.  It is due after 2 steps, then after 4, then at the
    step where the width's geometric decay between the last two check
    points reaches the bound, at least one step on (twice the steps where
    the width did not fall).  A rule that is None, a width above the last
    check point's or a Gauss node below ``fixed`` by more than rounding
    (``escaped``), which exact arithmetic rules out, ends the bracket:
    ``due`` becomes None, and the probe goes on without it.
    """

    def __init__(self, fixed, bound=None, c=0.0, gamma=1.0):
        self.fixed, self.bound, self.c, self.gamma = fixed, bound, c, gamma
        self.due = 2            # steps at the next check point
        self.gauss = None       # the Gauss rule of the last check
        self.width = None
        self.escaped = False
        self._last = None       # (steps, width) at the last check point

    def check(self, beta0_sq, alphas, betas):
        """Solve both rules; their midpoint once the bracket closes, else None."""
        k = len(alphas)
        gauss = self.gauss = gauss_rule(beta0_sq, alphas, betas[:k - 1], self.c,
                                        self.gamma)
        radau = radau_rule(beta0_sq, alphas, betas, self.fixed, self.c, self.gamma)
        self.escaped = gauss is not None and gauss.lowest < (
            self.c + self.gamma * self.fixed - _NODE_SLACK * gauss.highest)
        if gauss is None or radau is None or self.escaped:
            self.due = None
            return None
        width = self.width = abs(gauss.value - radau.value)
        bound = gauss.rounding + radau.rounding if self.bound is None else self.bound
        if width <= bound:
            return 0.5 * (gauss.value + radau.value)
        last, self._last = self._last, (k, width)
        if last is not None and width > last[1]:
            self.due = None     # G fell and R rose: rounding has taken over
        elif last is None or not width < last[1]:
            self.due = 2 * k
        else:
            per_step = math.log(width / last[1]) / (k - last[0])
            self.due = k + max(1, math.ceil(math.log(bound / width) / per_step))
        return None


class ModifiedChebyshev:
    """The Jacobi matrix of a measure from its modified moments in the Newton
    basis of ``nodes`` (a_l = nodes[l] in [-2, 2], b_l = 0), fed one moment
    at a time.

    With sigma_{k,l} = integral of pi_k p_l dmu for the monic orthogonal
    pi_k, the algorithm steps

        sigma_{k,l} = sigma_{k-1,l+1} - (alpha_{k-1} - a_l) sigma_{k-1,l}
                      - beta_{k-1} sigma_{k-2,l},
        alpha_k = a_k + sigma_{k,k+1} / sigma_{k,k} - sigma_{k-1,k} / sigma_{k-1,k-1},
        beta_k = sigma_{k,k} / sigma_{k-1,k-1},   beta_0 = nu_0.

    Moment nu_L completes the anti-diagonal sigma_{k,L-k}, k <= L/2, in O(L)
    flops from the two before it, which are all the table keeps: nu_{2k}
    yields beta_k and nu_{2k+1} alpha_k.  After 2k + 1 moments ``alphas``
    holds alpha_0..alpha_{k-1} and ``betas`` beta_0..beta_k: the k-node Gauss
    rule and the (k+1)-node Gauss-Radau rule.  A beta_k (k >= 1) at or
    below ``_BETA_FLOOR`` breaks the recursion: the measure has at most k
    points, to rounding, and the coefficients after it are rounding.
    """

    def __init__(self, nodes):
        self.nodes = nodes
        self.alphas = []
        self.betas = []
        self._last = []         # sigma_{k, L-1-k}: the anti-diagonal of nu_{L-1}
        self._before = []       # sigma_{k, L-2-k}
        self._ratio = 0.0       # sigma_{k-1,k} / sigma_{k-1,k-1}, the last alpha's
        self._count = 0         # moments taken

    def add(self, moment) -> bool:
        """Take the next moment; False once the recursion has broken down
        (a beta at or below the floor, or a non-finite coefficient), after
        which the table is not to be fed."""
        L = self._count
        self._count += 1
        a, alphas, betas = self.nodes, self.alphas, self.betas
        last, before = self._last, self._before
        new = [moment]
        for k in range(1, L // 2 + 1):
            s = new[k - 1] - (alphas[k - 1] - a[L - k]) * last[k - 1]
            if k >= 2:
                s -= betas[k - 1] * before[k - 2]
            new.append(s)
        k = L // 2
        if L % 2:       # nu_{2k+1}: alpha_k
            ratio = new[k] / last[k]
            alphas.append(a[k] + ratio - self._ratio)
            self._ratio = ratio
            ok = math.isfinite(alphas[-1])
        else:           # nu_{2k}: beta_k
            betas.append(new[k] / before[k - 1] if k else moment)
            ok = betas[-1] > (_BETA_FLOOR if k else 0.0) and math.isfinite(betas[-1])
        self._before, self._last = last, new
        return ok


def _lanczos_quadrature(m_sp, v, m_l, lowest, bound=None, highest=math.inf):
    """One probe of Lanczos quadrature for the log: ||v||^2 sum tau_k^2 log(theta_k).

    Plain Lanczos (``spectral._lanczos``) on ``v`` for at most ``m_l``
    steps; returns the value, the steps, half the bracket's width where the
    probe stopped on it (else None) and its last width (else None).  Where
    ``lowest``, a lower bound on the spectrum, is positive, a ``Bracket``
    with its Radau node there and ``bound`` (SLQ gives none) returns the
    midpoint once it closes, and a Ritz value that escapes below ``lowest``
    refuses [lowest, ``highest``] as no enclosure.  Otherwise the probe runs
    to ``m_l`` steps or breakdown and returns its Gauss rule; a Ritz value
    within rounding of zero, relative to the largest, then refuses the
    matrix as singular or indefinite.  Lost orthogonality only adds copies
    of converged Ritz values, whose weights sum to the weight of the one
    they copy, so the rules stay accurate (Greenbaum, "Behavior of slightly
    perturbed Lanczos and conjugate-gradient recurrences", LAA 1989;
    Knizhnerman, "The simple Lanczos procedure: estimates of the error of
    the Gauss quadrature formula", 1996).
    """
    beta0_sq = ddot(v, v)
    bracket = Bracket(lowest, bound) if lowest > 0 else None
    for alphas, betas in _lanczos(lambda x: m_sp @ x, v, m_l):
        k = alphas.shape[0]
        if k == m_l:
            break
        if bracket is None or k != bracket.due or betas.shape[0] < k:
            continue
        midpoint = bracket.check(beta0_sq, alphas, betas ** 2)
        if midpoint is not None:
            return midpoint, k, 0.5 * bracket.width, bracket.width
        if bracket.escaped:
            raise ValueError(
                f"a Ritz value of the probe lies at {bracket.gauss.lowest:.6g}, below "
                f"the interval [{lowest:.6g}, {highest:.6g}]: it does not enclose the "
                f"spectrum")
    gauss = gauss_rule(beta0_sq, alphas, betas[:k - 1] ** 2)
    if gauss is None:
        raise ValueError("non-positive Ritz value, to rounding; matrix does not appear SPD")
    return gauss.value, k, None, bracket and bracket.width
