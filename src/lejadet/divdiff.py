"""Stable divided differences of the logarithm at mapped Leja nodes.

Computing the Newton coefficients by the textbook recursive table can lose
accuracy once many nodes are involved, so the production path instead reads
them off a matrix function: the divided differences of g(xi) = log(c + gamma*xi)
at nodes xi_0..xi_m are the first column of log(Q_m), where Q_m is the lower
bidiagonal matrix with the mapped nodes on its diagonal and gamma on the
subdiagonal.  Writing log(z) = log(s) + log(1 + (z/s - 1)) turns log(Q_m)
into a Taylor series in W = (Q_m - s I)/s; only products W^k e_1 are needed,
each an O(m) bidiagonal sweep.  The series is expanded about the interval
centre, s = c: the terms shrink geometrically with ratio
D(s) = max |z/s - 1| over the nodes, and s = c minimises it, at
D(c) = (kappa - 1)/(kappa + 1) < 1 on [lambda_min, lambda_max].

A classical recursion evaluated in extended precision (mpmath) serves as the
test oracle, and a plain float64 recursion is kept for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from .leja import LejaSequence
from .spectral import MapParams

__all__ = [
    "DividedDiffs",
    "divided_differences_log",
    "reference_divided_differences",
    "naive_divided_differences",
]

# hard ceiling on Taylor terms; the adaptive rule below stays well under it
P_MAX_CEILING = 500_000
_P_MAX_CONDITIONAL = 100_000


@dataclass(frozen=True)
class DividedDiffs:
    """Newton coefficients of log(c + gamma*xi) at a Leja node sequence.

    ``coeffs[k]`` is the k-th divided difference of g(xi) = log(c + gamma*xi)
    taken at ``nodes[0..k]``; it equals gamma^k times the divided difference
    of log at the mapped nodes z = c + gamma*xi.
    """

    coeffs: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    map_params: MapParams
    taylor_terms: int
    truncated: bool
    last_term_norm: float
    term_norms: np.ndarray | None = field(default=None, repr=False)

    def __len__(self):
        return self.coeffs.shape[0]


def _auto_taylor_depth(q: float, tol: float) -> int:
    """Number of terms after which q^k falls below tol, with headroom."""
    if q >= 1.0 - 1e-12:
        # (kappa - 1)/(kappa + 1) comes this close to one from kappa ~ 2e12,
        # which a Lanczos enclosure or a caller's interval can reach: the
        # series then converges only conditionally, so the depth caps the
        # cost and the truncation flag reports the accuracy actually reached
        return _P_MAX_CONDITIONAL
    depth = int(math.ceil(math.log(tol) / math.log(q))) + 64
    return min(max(depth, 400), P_MAX_CEILING)


def divided_differences_log(seq: LejaSequence, mp: MapParams,
                            p_max: int | None = None,
                            keep_term_norms: bool = False) -> DividedDiffs:
    """Divided differences of log at the mapped nodes, scaled-Taylor scheme.

    Accumulates the first column of log(s) I + sum_k (-1)^{k+1} W^k / k,
    s = c, by repeated bidiagonal products on e_1, stopping once the 2-norm
    of the k-th term falls below 1e-16 (|log s| + 1) or after ``p_max`` terms
    (default: chosen from the worst node ratio so the geometric tail clears
    the tolerance).  If the depth cap is hit first the result carries
    ``truncated=True`` and the norm of the last term.
    """
    if mp.degenerate:
        raise ValueError("degenerate map (gamma = 0); use the degenerate "
                         "action path instead of interpolation")
    xi = seq.points
    z = mp.c + mp.gamma * xi
    if np.min(z) <= 0.0:
        raise ValueError("all mapped nodes must be positive")
    s = mp.c

    diag = z / s - 1.0                 # diagonal of W
    sub = mp.gamma / s                 # constant subdiagonal of W
    logs = math.log(s)
    taylor_tol = 1e-16 * (abs(logs) + 1.0)
    q = float(np.max(np.abs(diag)))
    if p_max is None:
        p_max = _auto_taylor_depth(q, taylor_tol)

    m1 = xi.shape[0]
    u = np.zeros(m1)
    u[0] = 1.0
    d = np.zeros(m1)
    d[0] = logs
    shifted = np.zeros(m1)             # shifted[0] stays zero
    work = np.empty(m1)
    norms = [] if keep_term_norms else None
    term_norm = np.inf
    terms = 0
    truncated = True
    sign = -1.0
    # a term is six calls on m1-entry vectors, so per-call overhead sets the
    # cost: the views are taken once, out is positional, and d += work goes
    # through BLAS with a unit multiplier, which rounds as numpy's add does
    head, tail = u[:-1], shifted[1:]
    for k in range(1, p_max + 1):
        # u <- W u for lower-bidiagonal W, in place: sub * u_{i-1} first
        np.multiply(head, sub, tail)
        np.multiply(u, diag, u)
        np.add(u, shifted, u)
        sign = -sign
        np.multiply(u, sign / k, work)
        daxpy(work, d)
        term_norm = math.sqrt(ddot(work, work))
        terms = k
        if norms is not None:
            norms.append(term_norm)
        if term_norm <= taylor_tol:
            truncated = False
            break
    if not np.all(np.isfinite(d)):
        raise FloatingPointError("divided-difference accumulation overflowed")
    return DividedDiffs(
        coeffs=d, nodes=xi, map_params=mp, taylor_terms=terms,
        truncated=truncated, last_term_norm=term_norm,
        term_norms=None if norms is None else np.asarray(norms))


def reference_divided_differences(nodes_z, prec_bits: int = 200) -> np.ndarray:
    """Classical recursion in extended precision; test oracle only.

    Returns the divided differences of log at the given z nodes, correctly
    rounded to float64.  Note the scaling relation to the production path:
    its k-th coefficient equals gamma^k times the value returned here.
    """
    import mpmath      # a test dependency only, so not imported with the package

    z = [float(t) for t in np.asarray(nodes_z, dtype=np.float64)]
    if min(z) <= 0.0:
        raise ValueError("nodes must be positive")
    n = len(z)
    if len(set(z)) != n:
        raise ValueError("coincident nodes")
    with mpmath.workprec(prec_bits):
        zm = [mpmath.mpf(t) for t in z]
        table = [mpmath.log(t) for t in zm]
        out = [table[0]]
        for level in range(1, n):
            table = [(table[i + 1] - table[i]) / (zm[i + level] - zm[i])
                     for i in range(n - level)]
            out.append(table[0])
        return np.array([float(t) for t in out])


def naive_divided_differences(nodes_z) -> np.ndarray:
    """Classical recursion in plain float64, for accuracy comparisons."""
    z = np.asarray(nodes_z, dtype=np.float64)
    if np.min(z) <= 0.0:
        raise ValueError("nodes must be positive")
    if np.unique(z).shape[0] != z.shape[0]:
        raise ValueError("coincident nodes")
    table = np.log(z)
    out = [table[0]]
    for level in range(1, z.shape[0]):
        table = (table[1:] - table[:-1]) / (z[level:] - z[:-level])
        out.append(table[0])
    return np.asarray(out)
