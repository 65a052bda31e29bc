"""Log-determinant estimators over a virtually normalized matrix.

All three estimators target log det Q = tr(log Q).  To keep the Hutch++
machinery on a positive semidefinite operand the matrix is normalized by
sigma = lambda_min whenever lambda_min < 1; the scaled matrix is never
formed.  Every quadratic form uses the identity

    v' log(Q/sigma) v = v' log(Q) v - log(sigma) ||v||^2,

so actions run on Q itself and the report carries the n*log(sigma) term
separately (the estimate is assembled as their sum).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import daxpy, ddot, dgemv

from .action import log_matvec
from .divdiff import divided_differences_log
from .leja import DEFAULT_POOL_SIZE, generate_fast_leja
from .sparse import SparseMatrixCSR
from .spectral import SpectralInterval, gershgorin_bounds, map_params

__all__ = [
    "Normalization",
    "LogDetReport",
    "normalize",
    "hutchpp_logdet",
    "hutchinson_logdet",
    "slq_logdet",
]

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
    reduction: str = "sequential"
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


def _map_actions(func, tasks, reduction):
    """Apply func over tasks; results come back in task order in both modes."""
    if reduction == "parallel":
        with ThreadPoolExecutor() as pool:
            yield from pool.map(func, tasks)
    else:
        yield from map(func, tasks)


class _ActionRecord(NamedTuple):
    """Diagnostics of one action, as the report needs them."""

    label: str
    degree: int
    matvecs: int
    converged: bool
    error_estimate: float


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
        tol = None if self.action_tol is None else self.action_tol * math.sqrt(vv)
        res = log_matvec(self.Q, v, self.mp, self.dd, tol=tol,
                         max_degree=self.max_degree)
        qform = ddot(v, res.vector) - self.log_sigma * vv
        return res, qform

    def act_all(self, phase, vector, count, reduction):
        """Act on ``vector(j)`` for j < count; yields (result, qform) in task order.

        Each action is recorded as "<phase> action j" in task order, so the
        report is the same in both reduction modes.
        """
        results = _map_actions(lambda j: self.act(vector(j)), range(count), reduction)
        for j, (res, qform) in enumerate(results):
            self.records.append(_ActionRecord(f"{phase} action {j}", res.degree_used,
                                              res.matvecs, res.converged,
                                              res.error_estimate))
            yield res, qform

    def report_fields(self):
        degrees = [r.degree for r in self.records]
        matvecs = sum(r.matvecs for r in self.records)
        all_converged = all(r.converged for r in self.records)
        warnings = [
            f"{r.label}: not converged at degree {r.degree} "
            f"(error estimate {r.error_estimate:.3e})"
            for r in self.records if not r.converged
        ]
        if self.dd is not None and self.dd.truncated:
            warnings.append(
                f"divided differences truncated after {self.dd.taylor_terms} Taylor "
                f"terms (last term norm {self.dd.last_term_norm:.3e})")
        return degrees, matvecs, warnings, all_converged


def hutchpp_logdet(Q: SparseMatrixCSR, m_vec: int, action_tol: float | None = 1e-7,
                   seed: int = 0, bounds: SpectralInterval | None = None,
                   scaling="center", max_degree: int = DEFAULT_MAX_DEGREE,
                   leja_count: int = DEFAULT_POOL_SIZE,
                   reduction: str = "sequential") -> LogDetReport:
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
                                             k, reduction)):
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
                             basis.shape[1], reduction):
        det_term += qf

    probes = _rademacher(rng, n, n_res)

    def deflated(j):
        u = _column(probes, j)
        if basis.shape[1]:      # u -= A (A' u), in place
            u = dgemv(-1.0, basis, dgemv(1.0, basis, u, trans=1), beta=1.0, y=u,
                      overwrite_y=True)
        return u

    res_term = 0.0
    for _, qf in eng.act_all("residual", deflated, n_res, reduction):
        res_term += qf
    res_term /= n_res

    trace_estimate = det_term + res_term
    n_log_sigma = n * eng.log_sigma
    degrees, matvecs, warnings, all_converged = eng.report_fields()
    return LogDetReport(
        method="leja-hutchpp",
        estimate=n_log_sigma + trace_estimate,
        trace_estimate=trace_estimate,
        n_log_sigma=n_log_sigma,
        sigma=eng.norm.sigma,
        queries=m_vec,
        degrees=_degree_stats(degrees),
        seed=seed,
        wall_time=time.perf_counter() - t0,
        matvecs_total=matvecs,
        reduction=reduction,
        warnings=warnings,
        converged=all_converged,
    )


def hutchinson_logdet(Q: SparseMatrixCSR, m_vec: int, action_tol: float | None = 1e-7,
                      seed: int = 0, bounds: SpectralInterval | None = None,
                      scaling="center", max_degree: int = DEFAULT_MAX_DEGREE,
                      leja_count: int = DEFAULT_POOL_SIZE,
                      reduction: str = "sequential") -> LogDetReport:
    """Plain Monte Carlo baseline: average of m_vec Rademacher quadratic forms."""
    if m_vec < 1:
        raise ValueError("need at least one query")
    t0 = time.perf_counter()
    eng = _ActionEngine(Q, bounds, scaling, action_tol, max_degree, leja_count)
    n = Q.n
    rng = np.random.default_rng(seed)
    probes = _rademacher(rng, n, m_vec)
    total = 0.0
    for _, qf in eng.act_all("probe", lambda j: _column(probes, j), m_vec, reduction):
        total += qf
    trace_estimate = total / m_vec
    n_log_sigma = n * eng.log_sigma
    degrees, matvecs, warnings, all_converged = eng.report_fields()
    return LogDetReport(
        method="hutchinson",
        estimate=n_log_sigma + trace_estimate,
        trace_estimate=trace_estimate,
        n_log_sigma=n_log_sigma,
        sigma=eng.norm.sigma,
        queries=m_vec,
        degrees=_degree_stats(degrees),
        seed=seed,
        wall_time=time.perf_counter() - t0,
        matvecs_total=matvecs,
        reduction=reduction,
        warnings=warnings,
        converged=all_converged,
    )


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


def slq_logdet(Q: SparseMatrixCSR, m_l: int, n_v: int, seed: int = 0,
               reduction: str = "sequential") -> LogDetReport:
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
    n = Q.n
    rng = np.random.default_rng(seed)
    probes = _rademacher(rng, n, n_v)

    def one_probe(j):
        return _lanczos_quadrature(m_sp, _column(probes, j), m_l)

    total = 0.0
    steps_used = []
    for val, steps in _map_actions(one_probe, range(n_v), reduction):
        total += val
        steps_used.append(steps)
    estimate = total / n_v
    return LogDetReport(
        method="slq",
        estimate=estimate,
        trace_estimate=estimate,
        n_log_sigma=0.0,
        sigma=1.0,
        queries=n_v,
        degrees=_degree_stats(steps_used),
        seed=seed,
        wall_time=time.perf_counter() - t0,
        matvecs_total=sum(steps_used),
        reduction=reduction,
        warnings=[],
        converged=True,
    )
