"""Log-determinant estimators over a virtually normalized matrix.

All three estimators target log det Q = tr(log Q).  To keep the Hutch++
machinery on a positive semidefinite operand the Leja methods normalize the
matrix by sigma = min(lambda_min, 1), a number on the action engine; the
scaled matrix is never formed.  Every quadratic form uses the identity

    v' log(Q/sigma) v = v' log(Q) v - log(sigma) ||v||^2,

so actions run on Q itself and the report carries the n*log(sigma) term
separately (the estimate is assembled as their sum).  Hutchinson is Hutch++
with an empty sketch: both run one Leja trace body.

``estimate`` is the one entry point: it dispatches to the three trace
estimators and the three exact oracles.  The Leja methods enclose the
spectrum themselves, by the rule of ``estimate_interval``, unless the caller
passes an interval.  Every report comes from ``_report``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import daxpy, ddot, dgemv

from .action import log_matvec
from .divdiff import divided_differences_log
from .leja import generate_fast_leja
from .oracle import (DENSE_CAP, band_logdet_cholesky, dense_logdet_cholesky,
                     gmrf_grid_logdet_analytic)
from .sparse import SparseMatrixCSR
from .spectral import SpectralInterval, estimate_interval, map_params

__all__ = [
    "METHODS",
    "LogDetReport",
    "estimate",
    "hutchpp_logdet",
    "hutchinson_logdet",
    "slq_logdet",
]

EXACT_METHODS = ("exact-dense", "exact-band", "exact-analytic")
METHODS = ("leja-hutchpp", "hutchinson", "slq") + EXACT_METHODS

DEFAULT_MAX_DEGREE = 400
# semi-orthogonality level sqrt(eps): SLQ reorthogonalizes a Lanczos vector
# only when its estimated loss of orthogonality exceeds this
_SEMI_ORTHO = math.sqrt(np.finfo(np.float64).eps)
# entries of a probe block drawn per chunk; the chunk's integers stay in cache
_RADEMACHER_CHUNK = 1 << 16


@dataclass
class LogDetReport:
    """Estimate plus the diagnostics needed to reproduce and audit a run."""

    method: str
    estimate: float
    trace_estimate: float
    n_log_sigma: float
    sigma: float
    queries: int
    degrees: dict
    seed: int
    wall_time: float
    matvecs_total: int
    warnings: list = field(default_factory=list)
    converged: bool = True
    std_error: float | None = None
    enclosure: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LogDetReport":
        return cls(**d)


def _degree_stats(degrees):
    if not degrees:
        return {"min": 0, "median": 0.0, "max": 0}
    arr = np.asarray(degrees)
    return {"min": int(arr.min()), "median": float(np.median(arr)),
            "max": int(arr.max())}


def _rademacher(rng, n, cols):
    """n x cols column-major int8 block of +-1 entries, written in one pass.

    Rows are drawn in chunks from one stream in the order of
    ``rng.integers(0, 2, size=(n, cols)) * 2.0 - 1.0``, so the block cast to
    float is bitwise equal to that draw and ``rng`` is left in the same
    state.  A probe is used as ``_column(block, j)``, a float copy.
    """
    out = np.empty((n, cols), dtype=np.int8, order="F")
    rows = max(1, _RADEMACHER_CHUNK // cols)
    for i in range(0, n, rows):
        bits = rng.integers(0, 2, size=(min(rows, n - i), cols))
        bits *= 2
        bits -= 1
        out[i:i + bits.shape[0]] = bits
    return out


def _column(block, j):
    """Column j of an int8 probe block as a fresh float vector."""
    return block[:, j].astype(np.float64)


class _ActionRecord(NamedTuple):
    """Diagnostics of one action, as the report needs them."""

    label: str
    degree: int             # one product with Q per degree (per Lanczos step)
    converged: bool
    error_estimate: float


def _report(method, trace_estimate, *, queries, seed, t0, records=(), terms=(),
            sigma=1.0, n=0, enclosure=None, matvecs=0) -> LogDetReport:
    """The one assembly of a ``LogDetReport``.

    ``records`` holds one ``_ActionRecord`` per action (per probe for SLQ);
    the degree statistics, matvec total (their degrees, plus ``matvecs``
    spent elsewhere), warnings and convergence flag come from them.
    ``terms`` are the m probe terms whose mean enters the estimate; the
    standard error is their sample standard deviation over sqrt(m), or None
    for m < 2.  ``n`` and ``sigma`` give the n*log(sigma) term, and the wall
    time runs from ``t0``.
    """
    warnings = [
        f"{r.label}: not converged at degree {r.degree} "
        f"(error estimate {r.error_estimate:.3e})"
        for r in records if not r.converged
    ]
    n_log_sigma = n * math.log(sigma)
    return LogDetReport(
        method=method,
        estimate=n_log_sigma + trace_estimate,
        trace_estimate=trace_estimate,
        n_log_sigma=n_log_sigma,
        sigma=sigma,
        queries=queries,
        degrees=_degree_stats([r.degree for r in records]),
        seed=seed,
        wall_time=time.perf_counter() - t0,
        matvecs_total=matvecs + sum(r.degree for r in records),
        warnings=warnings,
        converged=all(r.converged for r in records),
        std_error=(float(np.std(terms, ddof=1)) / math.sqrt(len(terms))
                   if len(terms) >= 2 else None),
        enclosure=enclosure,
    )


class _ActionEngine:
    """Shared setup for Leja actions on one matrix: bounds, map, coefficients,
    and the normalization sigma = min(lambda_min, 1) with its logarithm.

    ``records`` keeps each action's diagnostics for the report, never its
    result vector.
    """

    def __init__(self, Q, bounds, max_degree, seed):
        if not Q.symmetric_verified:
            raise ValueError("estimators require a verified-symmetric matrix")
        self.Q = Q
        self.bounds = estimate_interval(Q, seed=seed) if bounds is None else bounds
        self.enclosure_matvecs = self.bounds.matvecs if bounds is None else 0
        self.mp = map_params(self.bounds)
        self.sigma = float(min(self.bounds.lambda_min, 1.0))
        self.log_sigma = math.log(self.sigma)
        self.max_degree = max_degree
        if self.mp.degenerate:
            self.dd = None
        else:       # an action of degree m reads coefficients 0..m
            self.dd = divided_differences_log(generate_fast_leja(max_degree + 1),
                                              self.mp)
        self.records = []

    def act(self, v, tol):
        """log(Q) v to relative tolerance ``tol``; returns (result, v' log(Q~) v)."""
        vv = ddot(v, v)
        v_norm = math.sqrt(vv)
        res = log_matvec(self.Q, v, self.mp, self.dd, tol=tol * v_norm,
                         max_degree=self.max_degree, v_norm=v_norm)
        qform = ddot(v, res.vector) - self.log_sigma * vv
        return res, qform

    def act_all(self, phase, vector, count, tol, images=None):
        """Act on ``vector(j)`` for j < count to relative tolerance ``tol``;
        returns their forms v' log(Q~) v in order.

        With ``images``, column j receives log(Q~) vector(j).  Each action is
        recorded as "<phase> action j".
        """
        qforms = []
        for j in range(count):
            v = vector(j)
            res, qform = self.act(v, tol)
            self.records.append(_ActionRecord(f"{phase} action {j}", res.degree_used,
                                              res.converged, res.error_estimate))
            if images is not None:      # log(Q~) = log(Q) - log(sigma) I
                col = images[:, j]
                if self.log_sigma:      # formed in the column: no n-vector temporary
                    np.multiply(v, -self.log_sigma, out=col)
                    col += res.vector
                else:
                    col[:] = res.vector
            del v, res      # the next action must not run with these alive
            qforms.append(qform)
        return qforms


def _leja_trace(method, Q, m_vec, k, action_tol, seed, bounds, max_degree):
    """Hutch++ over Leja actions with a sketch of k columns; k = 0 is Hutchinson.

    With k = 0 there is no sketch, QR or deterministic phase: the basis is
    empty and the m_vec probes, named "probe" rather than "residual", are
    the first draw of ``default_rng(seed)``.
    """
    if not action_tol > 0:      # NaN too: every action would stop at degree 0
        raise ValueError("action_tol must be positive")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    t0 = time.perf_counter()
    eng = _ActionEngine(Q, bounds, max_degree, seed)
    n = Q.n
    rng = np.random.default_rng(seed)
    n_res = m_vec - 2 * k
    basis = np.empty((n, 0), order="F")
    det_term = 0.0
    if k:
        sketch = _rademacher(rng, n, k)
        y = np.empty((n, k), order="F")
        eng.act_all("sketch", lambda j: _column(sketch, j), k,
                    max(action_tol, math.sqrt(action_tol)), images=y)
        del sketch

        # the basis is formed in y's storage; the actions have already checked
        # that every iterate is finite
        basis, r = scipy.linalg.qr(y, mode="economic", overwrite_a=True,
                                   check_finite=False)
        rdiag = np.abs(np.diag(r))
        keep = (rdiag > 0.0) & (rdiag >= 1e-12 * rdiag.max())  # zero sketch: no basis
        if not keep.all():
            basis = np.asfortranarray(basis[:, keep])

        for qf in eng.act_all("deterministic", lambda j: basis[:, j],
                              basis.shape[1], action_tol):
            det_term += qf

    probes = _rademacher(rng, n, n_res)

    def deflated(j):
        u = _column(probes, j)
        if basis.shape[1]:      # u -= A (A' u), in place
            u = dgemv(-1.0, basis, dgemv(1.0, basis, u, trans=1), beta=1.0, y=u,
                      overwrite_y=True)
        return u

    terms = eng.act_all("residual" if k else "probe", deflated, n_res, action_tol)
    res_term = 0.0
    for qf in terms:
        res_term += qf
    res_term /= n_res

    return _report(method, det_term + res_term, queries=m_vec, seed=seed, t0=t0,
                   records=eng.records, terms=terms, sigma=eng.sigma, n=n,
                   enclosure=eng.bounds.method,
                   matvecs=eng.enclosure_matvecs)


def hutchpp_logdet(Q: SparseMatrixCSR, m_vec: int, action_tol: float = 1e-7,
                   seed: int = 0, bounds: SpectralInterval | None = None,
                   max_degree: int = DEFAULT_MAX_DEGREE) -> LogDetReport:
    """Hutch++ estimate of log det Q with Leja-interpolated actions.

    With k = floor(m_vec / 3): a Rademacher sketch of k columns is pushed
    through log(Q~), an orthonormal basis A of the result captures the
    dominant range (columns with negligible QR diagonal are dropped), the
    trace over that basis is summed exactly, and the leftover trace is
    estimated by Hutchinson probes deflated by A.  Total actions ~= m_vec.
    Every action interpolates log at the fast Leja points of the enclosing
    interval, with divided differences from one trapezoid sum.

    ``action_tol`` is relative to each probe norm and governs the
    deterministic and residual actions, whose quadratic forms enter the
    estimate directly.  The sketch actions run to ``max(action_tol,
    sqrt(action_tol))``: the estimator is unbiased for any basis that does
    not depend on the residual probes, and a basis off by delta changes the
    residual operator (I - AA')log(Q~)(I - AA') only at order delta^2, so
    the sketch needs about the square root of the tolerance the estimate
    needs.  Non-converged actions (sketch ones included) are reported in
    ``warnings``, never silently accepted.  Without ``bounds`` the spectrum
    is enclosed by ``estimate_interval(Q, seed=seed)``; its time and
    products with Q count in the wall time and ``matvecs_total``, and
    ``report.enclosure`` names the route.
    """
    if m_vec < 3:
        raise ValueError("Hutch++ needs at least 3 matvec queries")
    return _leja_trace("leja-hutchpp", Q, m_vec, m_vec // 3, action_tol, seed, bounds,
                       max_degree)


def hutchinson_logdet(Q: SparseMatrixCSR, m_vec: int, action_tol: float = 1e-7,
                      seed: int = 0, bounds: SpectralInterval | None = None,
                      max_degree: int = DEFAULT_MAX_DEGREE) -> LogDetReport:
    """Plain Monte Carlo baseline: Hutch++ with an empty sketch, the average of
    m_vec Rademacher quadratic forms; options as in ``hutchpp_logdet``."""
    if m_vec < 1:
        raise ValueError("need at least one query")
    return _leja_trace("hutchinson", Q, m_vec, 0, action_tol, seed, bounds, max_degree)


def _lanczos(m_sp, v, m_l):
    """Lanczos on ``v`` with partial reorthogonalization: (basis, alphas, betas).

    The loss of orthogonality of each new vector is estimated, not measured:
    Simon's omega-recurrence (Simon, "The Lanczos algorithm with partial
    reorthogonalization", Math. Comp. 1984) updates omega_{j+1,k} ~= q_{j+1}' q_k
    for k <= j from the alphas, the betas and the two previous omega rows,
    plus a roundoff term of psi = sqrt(n) eps / 2 times (beta_k + beta_{j+1}).
    That is O(j) scalar work and no pass over the basis.  Only when
    max|omega| exceeds sqrt(eps) is the new vector corrected, w -= V (V' w),
    and so is the next one (the two-step rule), after which omega is reset
    to psi.  Keeping the basis semi-orthogonal (|q_i' q_k| <= sqrt(eps))
    keeps the tridiagonal equal to the projected matrix to working
    precision, so the Gauss rule matches full reorthogonalization.
    The last step stops once its alpha is known.  On breakdown (invariant
    Krylov subspace) the outputs are truncated at the step reached.

    The step loop calls scipy's BLAS only: mixing in numpy's (``@``,
    ``np.linalg.norm``) alternates two OpenBLAS thread pools, which stall
    each other when BLAS threads are not pinned.
    """
    n = v.shape[0]
    basis = np.empty((n, m_l), order="F")
    np.divide(v, math.sqrt(ddot(v, v)), out=basis[:, 0])
    alphas = np.empty(m_l)
    betas = np.empty(max(m_l - 1, 0))
    psi = 0.5 * math.sqrt(n) * np.finfo(np.float64).eps
    omega_prev = omega = np.ones(1)                 # rows j - 1 and j
    redo = False
    steps = m_l
    for j in range(m_l):
        q = basis[:, j]
        w = m_sp @ q
        alphas[j] = ddot(q, w)
        if j == m_l - 1:
            break
        w = daxpy(q, w, a=-alphas[j])
        if j > 0:
            w = daxpy(basis[:, j - 1], w, a=-betas[j - 1])
        b = math.sqrt(ddot(w, w))
        tiny = 1e-12 * max(np.max(np.abs(alphas[:j + 1])), 1.0)
        row = np.full(j + 2, psi)                   # omega_{j+1,k}, k <= j + 1
        row[j + 1] = 1.0
        if b > tiny and j > 0:
            est = betas[:j] * omega[1:j + 1] + (alphas[:j] - alphas[j]) * omega[:j]
            est[1:] += betas[:j - 1] * omega[:j - 1]
            est -= betas[j - 1] * omega_prev[:j]
            est += np.copysign(psi * (betas[:j] + b), est)
            row[:j] = est / b
        if redo or np.max(np.abs(row[:j + 1])) > _SEMI_ORTHO:
            active = basis[:, :j + 1]
            h = dgemv(1.0, active, w, trans=1)
            w = dgemv(-1.0, active, h, beta=1.0, y=w, overwrite_y=True)
            b = math.sqrt(ddot(w, w))
            row[:j + 1] = psi
            redo = not redo
        if b <= tiny:
            steps = j + 1
            break
        betas[j] = b
        np.divide(w, b, out=basis[:, j + 1])
        omega_prev, omega = omega, row
    return basis[:, :steps], alphas[:steps], betas[:steps - 1]


def _lanczos_quadrature(m_sp, v, m_l):
    """One probe of Lanczos quadrature for the log: ||v||^2 sum tau_k^2 log(theta_k).

    The Gauss rule of the tridiagonal of ``_lanczos`` (loss of orthogonality
    estimated by Simon's omega-recurrence); returns it and the steps taken.
    """
    _, alphas, betas = _lanczos(m_sp, v, m_l)
    theta, vecs = eigh_tridiagonal(alphas, betas)
    if np.any(theta <= 0.0):
        raise ValueError("non-positive Ritz value; matrix does not appear SPD")
    tau_sq = vecs[0, :] ** 2
    return ddot(v, v) * float(tau_sq @ np.log(theta)), alphas.size


def slq_logdet(Q: SparseMatrixCSR, m_l: int, n_v: int, seed: int = 0) -> LogDetReport:
    """Stochastic Lanczos quadrature baseline.

    For each of ``n_v`` Rademacher probes, ``m_l`` Lanczos steps yield a
    Gauss rule for v' log(Q) v; the estimate is the probe average.  No
    normalization is applied: negative log eigenvalues enter the quadrature
    directly.  The Lanczos basis is kept semi-orthogonal rather than fully
    orthogonal: Simon's omega-recurrence estimates each step's loss of
    orthogonality from the Lanczos coefficients, and a step (with the one
    after it) is reorthogonalized only when that estimate exceeds sqrt(eps)
    (Simon 1984; see ``_lanczos``), which agrees with full
    reorthogonalization to working precision.
    """
    if m_l < 1:
        raise ValueError("Lanczos degree must be at least 1")
    if n_v < 1:
        raise ValueError("need at least one probe")
    if not Q.symmetric_verified:
        raise ValueError("estimators require a verified-symmetric matrix")
    t0 = time.perf_counter()
    m_sp = Q.to_scipy()
    rng = np.random.default_rng(seed)
    probes = _rademacher(rng, Q.n, n_v)
    total = 0.0
    records, terms = [], []
    for j in range(n_v):
        val, steps = _lanczos_quadrature(m_sp, _column(probes, j), m_l)
        total += val
        terms.append(val)
        records.append(_ActionRecord(f"probe {j}", steps, True, 0.0))
    return _report("slq", total / n_v, queries=n_v, seed=seed, t0=t0, records=records,
                   terms=terms)


def estimate(Q: SparseMatrixCSR, method: str, *, queries: int = 12, probes: int = 30,
             slq_degree: int = 40, tol: float = 1e-7, seed: int = 0,
             max_degree: int = DEFAULT_MAX_DEGREE,
             lattice: tuple[int, float] | None = None) -> LogDetReport:
    """log det Q by one of ``METHODS``, with the command line's defaults.

    ``leja-hutchpp`` and ``hutchinson`` spend ``queries`` Leja actions of
    relative tolerance ``tol`` (at most ``max_degree`` each; Hutch++ runs
    its sketch actions to ``max(tol, sqrt(tol))``, see ``hutchpp_logdet``)
    on the interval that ``estimate_interval(Q, seed=seed)`` chooses
    (Gershgorin, or Lanczos when Gershgorin's condition number exceeds 1e4;
    ``report.enclosure``), with divided differences from one trapezoid sum
    (``divided_differences_log``).
    The wall time and matvec total include that enclosure.  ``slq`` runs
    ``probes`` probes of ``slq_degree`` Lanczos steps and needs no enclosure.
    ``exact-dense`` and ``exact-band`` are the Cholesky oracles;
    ``exact-analytic`` is the lattice closed form and needs
    ``lattice = (g, theta)`` of ``Q = gen_gmrf_grid(g, theta)``.
    """
    if method in ("leja-hutchpp", "hutchinson"):
        strategy = hutchpp_logdet if method == "leja-hutchpp" else hutchinson_logdet
        return strategy(Q, queries, action_tol=tol, seed=seed,
                        max_degree=max_degree)
    if method == "slq":
        return slq_logdet(Q, slq_degree, probes, seed=seed)
    t0 = time.perf_counter()
    if method == "exact-dense":
        value = dense_logdet_cholesky(Q.to_dense(max_n=DENSE_CAP))
    elif method == "exact-band":
        value = band_logdet_cholesky(Q, Q.bandwidth())
    elif method == "exact-analytic":
        if lattice is None:
            raise ValueError("the analytic oracle applies only to --gen gmrf:G:THETA")
        value = gmrf_grid_logdet_analytic(*lattice)
    else:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    return _report(method, value, queries=0, seed=seed, t0=t0)
