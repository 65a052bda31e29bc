"""Divided differences of the logarithm at mapped Leja nodes, by quadrature.

Computing the Newton coefficients by the textbook recursive table can lose
accuracy once many nodes are involved, so the production path reads them off
the Stieltjes form of the logarithm (Higham, *Functions of Matrices*, ch. 11),

    log z = int_0^inf [1/(1 + t) - 1/(z + t)] dt.

The divided differences of -1/(z + t) at z_0..z_k are (-1)^{k+1} / prod_i
(z_i + t), so for k >= 1 the k-th coefficient of g(xi) = log(c + gamma*xi)
at nodes xi_0..xi_k is

    d_k = (-1)^{k+1} int_0^inf prod_{i<=k} gamma / (z_i + t) dt / gamma,

with z = c + gamma*xi, where c and gamma are the centre and quarter-width of
the enclosing ``SpectralInterval``.  The integrand is positive, so nothing
cancels, and in u = log t it is analytic in a strip about the real axis, so
the trapezoid rule converges geometrically (Trefethen and Weideman, SIAM
Review 2014): one fixed step serves every condition number and every degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import SpectralInterval

__all__ = ["DividedDiffs", "divided_differences_log"]

# trapezoid step in u = log t: a step of 0.4 leaves errors of 1e-10 to 3e-10,
# while 0.2 sits at rounding level
_STEP = 0.2
# the grid reaches this far in u beyond the extreme nodes: e^-37 ~ 8.5e-17
# bounds each neglected tail; below the grid the neglected part grows like
# (m + 1) t_lo / min z, so the lower end moves down a further log(m + 1)
_PAD = 37.0


@dataclass(frozen=True)
class DividedDiffs:
    """Newton coefficients of log(c + gamma*xi) at a Leja node sequence.

    ``coeffs[k]`` is the k-th divided difference of g(xi) = log(c + gamma*xi)
    taken at ``nodes[0..k]``; it equals gamma^k times the divided difference
    of log at the mapped nodes z = c + gamma*xi.  c and gamma are those of
    ``interval``.
    """

    coeffs: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    interval: SpectralInterval
    # kept because perfbench's traced run reads them: node count, always False
    taylor_terms: int
    truncated: bool = False

    def __len__(self):
        return self.coeffs.shape[0]


def divided_differences_log(points: np.ndarray,
                            interval: SpectralInterval) -> DividedDiffs:
    """Divided differences of log at the Leja ``points`` mapped onto ``interval``,
    by one trapezoid sum.

    Row k of the (m+1) x N work array holds prod_{i<=k} gamma / (z_i + t_j)
    on the grid t_j = e^{u_j}; its product with the weights step * t_j / gamma
    gives every |d_k| at once, and d_0 is log z_0.  A one-point interval
    (gamma = 0) has the one coefficient log c.
    """
    c, gamma = interval.c, interval.gamma
    if gamma == 0.0:
        return DividedDiffs(coeffs=np.array([math.log(c)]), nodes=points[:1],
                            interval=interval, taylor_terms=0)
    z = c + gamma * points
    if np.min(z) <= 0.0:
        raise ValueError("all mapped nodes must be positive")
    t = np.exp(np.arange(math.log(np.min(z)) - _PAD - math.log(z.shape[0]),
                         math.log(np.max(z)) + _PAD, _STEP))
    work = np.add.outer(z, t)
    np.divide(gamma, work, out=work)
    np.cumprod(work, axis=0, out=work)
    d = work @ (t * (_STEP / gamma))
    d[2::2] *= -1.0
    d[0] = math.log(z[0])
    if not np.all(np.isfinite(d)):
        raise FloatingPointError("divided-difference quadrature overflowed")
    return DividedDiffs(coeffs=d, nodes=points, interval=interval,
                        taylor_terms=t.shape[0])

