"""Log-determinant estimators over a virtually normalized matrix.

All three estimators target log det Q = tr(log Q).  To keep the Hutch++
machinery on a positive semidefinite operand the matrix is normalized by
sigma = lambda_min whenever lambda_min < 1; the scaled matrix is never
formed.  Every quadratic form uses the identity

    v' log(Q/sigma) v = v' log(Q) v - log(sigma) ||v||^2,

so actions run on Q itself and the report carries the n*log(sigma) term
separately (the estimate is assembled as their sum).

``estimate`` is the one entry point: it encloses the spectrum for the Leja
methods and dispatches to the three trace estimators and the three exact
oracles.  Every report comes from ``_report``.
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
from .leja import DEFAULT_POOL_SIZE, generate_fast_leja
from .oracle import (DENSE_CAP, band_logdet_cholesky, dense_logdet_cholesky,
                     gmrf_grid_logdet_analytic)
from .sparse import SparseMatrixCSR
from .spectral import (SpectralInterval, estimate_interval, gershgorin_bounds,
                       map_params)

__all__ = [
    "METHODS",
    "Normalization",
    "LogDetReport",
    "normalize",
    "estimate",
    "hutchpp_logdet",
    "hutchinson_logdet",
    "slq_logdet",
]

EXACT_METHODS = ("exact-dense", "exact-band", "exact-analytic")
METHODS = ("leja-hutchpp", "hutchinson", "slq") + EXACT_METHODS

DEFAULT_MAX_DEGREE = 400
# semi-orthogonality level sqrt(eps): SLQ reorthogonalizes a Lanczos vector
# only when its measured loss of orthogonality exceeds this
_SEMI_ORTHO = math.sqrt(np.finfo(np.float64).eps)
# entries of a probe block drawn per chunk; the chunk's integers stay in cache
_RADEMACHER_CHUNK = 1 << 16


@dataclass(frozen=True)
class Normalization:
    """Scaling sigma applied (virtually) so log(Q/sigma) is PSD."""

    sigma: float
    scaled: bool


def normalize(interval: SpectralInterval) -> Normalization:
    """sigma = lambda_min when it is below one, otherwise no scaling."""
    if interval.lambda_min < 1.0:
        return Normalization(sigma=float(interval.lambda_min), scaled=True)
    return Normalization(sigma=1.0, scaled=False)


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
    degree: int
    matvecs: int
    converged: bool
    error_estimate: float


def _report(method, trace_estimate, *, queries, seed, t0, records=(), sigma=1.0,
            n=0, dd=None) -> LogDetReport:
    """The one assembly of a ``LogDetReport``.

    ``records`` holds one ``_ActionRecord`` per action (per probe for SLQ);
    the degree statistics, matvec total, warnings and convergence flag come
    from them.  ``n`` and ``sigma`` give the n*log(sigma) term, ``dd`` adds
    a warning when its Taylor series was truncated, and the wall time runs
    from ``t0``.
    """
    warnings = [
        f"{r.label}: not converged at degree {r.degree} "
        f"(error estimate {r.error_estimate:.3e})"
        for r in records if not r.converged
    ]
    if dd is not None and dd.truncated:
        warnings.append(
            f"divided differences truncated after {dd.taylor_terms} Taylor "
            f"terms (last term norm {dd.last_term_norm:.3e})")
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
        matvecs_total=sum(r.matvecs for r in records),
        warnings=warnings,
        converged=all(r.converged for r in records),
    )


class _ActionEngine:
    """Shared setup for Leja actions on one matrix: bounds, map, coefficients.

    ``records`` keeps each action's diagnostics for the report, never its
    result vector.
    """

    def __init__(self, Q, bounds, scaling, action_tol, max_degree, leja_count):
        if not Q.symmetric_verified:
            raise ValueError("estimators require a verified-symmetric matrix")
        self.Q = Q
        self.bounds = gershgorin_bounds(Q) if bounds is None else bounds
        self.mp = map_params(self.bounds)
        self.norm = normalize(self.bounds)
        self.log_sigma = math.log(self.norm.sigma)
        self.action_tol = action_tol
        self.max_degree = max_degree
        if self.mp.degenerate:
            self.dd = None
        else:
            count = max(leja_count, max_degree + 1)
            self.dd = divided_differences_log(generate_fast_leja(count), self.mp,
                                              scaling=scaling)
        self.records = []

    def act(self, v):
        """log(Q) v; returns (result, quadratic form v' log(Q~) v)."""
        vv = ddot(v, v)
        v_norm = math.sqrt(vv)
        tol = None if self.action_tol is None else self.action_tol * v_norm
        res = log_matvec(self.Q, v, self.mp, self.dd, tol=tol,
                         max_degree=self.max_degree, v_norm=v_norm)
        qform = ddot(v, res.vector) - self.log_sigma * vv
        return res, qform

    def act_all(self, phase, vector, count):
        """Act on ``vector(j)`` for j < count; yields (result, qform) in order.

        Each action is recorded as "<phase> action j".
        """
        for j in range(count):
            res, qform = self.act(vector(j))
            self.records.append(_ActionRecord(f"{phase} action {j}", res.degree_used,
                                              res.matvecs, res.converged,
                                              res.error_estimate))
            yield res, qform


def hutchpp_logdet(Q: SparseMatrixCSR, m_vec: int, action_tol: float | None = 1e-7,
                   seed: int = 0, bounds: SpectralInterval | None = None,
                   scaling="center", max_degree: int = DEFAULT_MAX_DEGREE,
                   leja_count: int = DEFAULT_POOL_SIZE) -> LogDetReport:
    """Hutch++ estimate of log det Q with Leja-interpolated actions.

    With k = floor(m_vec / 3): a Rademacher sketch of k columns is pushed
    through log(Q~), an orthonormal basis A of the result captures the
    dominant range (columns with negligible QR diagonal are dropped), the
    trace over that basis is summed exactly, and the leftover trace is
    estimated by Hutchinson probes deflated by A.  Total actions ~= m_vec.

    ``action_tol`` is relative to each probe norm.  Non-converged actions
    are reported in ``warnings``, never silently accepted.
    """
    if m_vec < 3:
        raise ValueError("Hutch++ needs at least 3 matvec queries")
    t0 = time.perf_counter()
    eng = _ActionEngine(Q, bounds, scaling, action_tol, max_degree, leja_count)
    n = Q.n
    rng = np.random.default_rng(seed)
    k = m_vec // 3
    n_res = m_vec - 2 * k

    sketch = _rademacher(rng, n, k)
    y = np.empty((n, k), order="F")
    for j, (res, _) in enumerate(eng.act_all("sketch", lambda j: _column(sketch, j),
                                             k)):
        # image under log(Q~) = log(Q) - log(sigma) I
        y[:, j] = res.vector
        y[:, j] += sketch[:, j] * -eng.log_sigma
    del sketch

    # the basis is formed in y's storage; the actions have already checked
    # that every iterate is finite
    basis, r = scipy.linalg.qr(y, mode="economic", overwrite_a=True,
                               check_finite=False)
    rdiag = np.abs(np.diag(r))
    scale = float(rdiag.max()) if rdiag.size else 0.0
    if scale > 0.0:
        keep = rdiag >= 1e-12 * scale
    else:
        keep = np.zeros(rdiag.shape, dtype=bool)   # zero sketch, empty basis
    if not keep.all():
        basis = np.asfortranarray(basis[:, keep])

    det_term = 0.0
    for _, qf in eng.act_all("deterministic", lambda j: basis[:, j],
                             basis.shape[1]):
        det_term += qf

    probes = _rademacher(rng, n, n_res)

    def deflated(j):
        u = _column(probes, j)
        if basis.shape[1]:      # u -= A (A' u), in place
            u = dgemv(-1.0, basis, dgemv(1.0, basis, u, trans=1), beta=1.0, y=u,
                      overwrite_y=True)
        return u

    res_term = 0.0
    for _, qf in eng.act_all("residual", deflated, n_res):
        res_term += qf
    res_term /= n_res

    return _report("leja-hutchpp", det_term + res_term, queries=m_vec, seed=seed,
                   t0=t0, records=eng.records, sigma=eng.norm.sigma, n=n, dd=eng.dd)


def hutchinson_logdet(Q: SparseMatrixCSR, m_vec: int, action_tol: float | None = 1e-7,
                      seed: int = 0, bounds: SpectralInterval | None = None,
                      scaling="center", max_degree: int = DEFAULT_MAX_DEGREE,
                      leja_count: int = DEFAULT_POOL_SIZE) -> LogDetReport:
    """Plain Monte Carlo baseline: average of m_vec Rademacher quadratic forms."""
    if m_vec < 1:
        raise ValueError("need at least one query")
    t0 = time.perf_counter()
    eng = _ActionEngine(Q, bounds, scaling, action_tol, max_degree, leja_count)
    n = Q.n
    rng = np.random.default_rng(seed)
    probes = _rademacher(rng, n, m_vec)
    total = 0.0
    for _, qf in eng.act_all("probe", lambda j: _column(probes, j), m_vec):
        total += qf
    return _report("hutchinson", total / m_vec, queries=m_vec, seed=seed, t0=t0,
                   records=eng.records, sigma=eng.norm.sigma, n=n, dd=eng.dd)


def _lanczos_quadrature(m_sp, v, m_l):
    """One probe of Lanczos quadrature for the log: ||v||^2 sum tau_k^2 log(theta_k).

    Every step measures the loss of orthogonality of the new vector w,
    h = V' w against the basis V so far (one pass over V), and applies the
    correction w -= V h only when max|h| > sqrt(eps) ||w||.  Keeping the
    basis semi-orthogonal (|v_i' v_k| <= sqrt(eps)) keeps the tridiagonal
    equal to the projected matrix to working precision (Simon, "The Lanczos
    algorithm with partial reorthogonalization", Math. Comp. 1984), so the
    Gauss rule matches full reorthogonalization with one pass over V per
    step instead of two.
    The last step stops once its alpha is known.  On breakdown (invariant
    Krylov subspace) the quadrature is truncated at the step reached, which
    is then exact on that subspace.

    The step loop calls scipy's BLAS only: mixing in numpy's (``@``,
    ``np.linalg.norm``) alternates two OpenBLAS thread pools, which stall
    each other when BLAS threads are not pinned.
    """
    n = v.shape[0]
    beta0_sq = ddot(v, v)
    basis = np.empty((n, m_l), order="F")
    np.divide(v, math.sqrt(beta0_sq), out=basis[:, 0])
    alphas = np.empty(m_l)
    betas = np.empty(max(m_l - 1, 0))
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
        active = basis[:, :j + 1]
        h = dgemv(1.0, active, w, trans=1)
        b = math.sqrt(ddot(w, w))
        if np.max(np.abs(h)) > _SEMI_ORTHO * b:
            w = dgemv(-1.0, active, h, beta=1.0, y=w, overwrite_y=True)
            b = math.sqrt(ddot(w, w))
        if b <= 1e-12 * max(np.max(np.abs(alphas[:j + 1])), 1.0):
            steps = j + 1
            break
        betas[j] = b
        np.divide(w, b, out=basis[:, j + 1])
    theta, vecs = eigh_tridiagonal(alphas[:steps], betas[:steps - 1])
    if np.any(theta <= 0.0):
        raise ValueError("non-positive Ritz value; matrix does not appear SPD")
    tau_sq = vecs[0, :] ** 2
    return beta0_sq * float(tau_sq @ np.log(theta)), steps


def slq_logdet(Q: SparseMatrixCSR, m_l: int, n_v: int, seed: int = 0) -> LogDetReport:
    """Stochastic Lanczos quadrature baseline.

    For each of ``n_v`` Rademacher probes, ``m_l`` Lanczos steps yield a
    Gauss rule for v' log(Q) v; the estimate is the probe average.  No
    normalization is applied: negative log eigenvalues enter the quadrature
    directly.  The Lanczos basis is kept semi-orthogonal rather than fully
    orthogonal: a step is reorthogonalized only when its measured loss
    exceeds sqrt(eps) (Simon 1984; see ``_lanczos_quadrature``), which
    agrees with full reorthogonalization to working precision.
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
    records = []
    for j in range(n_v):
        val, steps = _lanczos_quadrature(m_sp, _column(probes, j), m_l)
        total += val
        records.append(_ActionRecord(f"probe {j}", steps, steps, True, 0.0))
    return _report("slq", total / n_v, queries=n_v, seed=seed, t0=t0, records=records)


def estimate(Q: SparseMatrixCSR, method: str, *, queries: int = 12, probes: int = 30,
             slq_degree: int = 40, tol: float = 1e-7, scaling="center",
             bounds: str = "gershgorin", seed: int = 0,
             max_degree: int = DEFAULT_MAX_DEGREE,
             lattice: tuple[int, float] | None = None) -> LogDetReport:
    """log det Q by one of ``METHODS``, with the command line's defaults.

    ``leja-hutchpp`` and ``hutchinson`` spend ``queries`` Leja actions of
    relative tolerance ``tol`` (at most ``max_degree`` each, divided
    differences scaled by ``scaling``) on the interval that
    ``estimate_interval(Q, bounds, seed=seed)`` encloses; their wall time
    includes that enclosure, which is part of the method's cost.  ``slq``
    runs ``probes`` probes of ``slq_degree`` Lanczos steps and needs no
    enclosure.  ``exact-dense`` and ``exact-band`` are the Cholesky
    oracles; ``exact-analytic`` is the lattice closed form and needs
    ``lattice = (g, theta)`` of ``Q = gen_gmrf_grid(g, theta)``.
    """
    t0 = time.perf_counter()
    if method in ("leja-hutchpp", "hutchinson"):
        interval = estimate_interval(Q, method=bounds, seed=seed)
        bounds_s = time.perf_counter() - t0
        strategy = hutchpp_logdet if method == "leja-hutchpp" else hutchinson_logdet
        report = strategy(Q, queries, action_tol=tol, seed=seed, bounds=interval,
                          scaling=scaling, max_degree=max_degree)
        report.wall_time += bounds_s
        return report
    if method == "slq":
        return slq_logdet(Q, slq_degree, probes, seed=seed)
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
