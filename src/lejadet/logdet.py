"""Log-determinant estimators over a virtually normalized matrix.

All three estimators target log det Q = tr(log Q).  To keep the Hutch++
machinery on a positive semidefinite operand the Leja methods normalize the
matrix by sigma = lambda_min, which leaves no constant log(lambda_min) I in
the operator for deflated probes to see as noise; sigma is a number on the
action engine and the scaled matrix is never formed.  The actions
interpolate log(z / sigma) itself: a constant has no divided differences of
order >= 1, so its Newton coefficients are those of log z with log(sigma)
taken off d_0.  Every action on Q therefore returns log(Q/sigma) v, every
quadratic form and exact trace is one of log(Q/sigma), and the report
carries the n*log(sigma) term separately (the estimate is their sum).
Hutchinson is Hutch++ with an empty sketch: both run one Leja trace body.

That body first asks whether the enclosure alone settles the trace.  For
the Newton interpolant P_K of log(z / sigma) at K + 1 nodes inside
[lambda_min, lambda_max], the Lagrange remainder gives, with r =
(lambda_max - lambda_min) / lambda_min,

    max |log(lambda / sigma) - P_K(lambda)| <= r^(K+1) / (K+1)   on the interval,

so |log det(Q/sigma) - tr P_K(Q)| <= n r^(K+1) / (K+1) whenever the
interval encloses the spectrum.  When that is at most n * action_tol for
some K <= 2, the smallest such K is taken and tr P_K(Q) is computed
exactly from the diagonal and the stored values, with no probe, sketch or
product with Q, and only the K + 1 coefficients it reads are computed; the
report carries the bound as ``error_bound``.  Otherwise the probes run.

``estimate`` is the one entry point: it dispatches to the three trace
estimators and the two exact oracles.  The Leja methods enclose the
spectrum themselves, by the rule of ``estimate_interval``, unless the caller
passes an interval.  Every report comes from ``_report``.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot, dgemv

from .action import log_matvec
from .divdiff import divided_differences_log
from .leja import generate_fast_leja
from .oracle import band_logdet_cholesky, gmrf_grid_logdet_analytic, lattice_of
from .quadrature import _lanczos_quadrature
from .sparse import SparseMatrixCSR, _checked_seed, _row_blocks
from .spectral import SpectralInterval, estimate_interval

__all__ = [
    "METHODS",
    "LogDetReport",
    "estimate",
    "hutchpp_logdet",
    "hutchinson_logdet",
    "slq_logdet",
]

EXACT_METHODS = ("exact-band", "exact-analytic")
METHODS = ("leja-hutchpp", "hutchinson", "slq") + EXACT_METHODS

DEFAULT_TOL = 1e-7
DEFAULT_MAX_DEGREE = 400
# entries of a probe block drawn per chunk; the chunk's integers stay in cache
_RADEMACHER_CHUNK = 1 << 16
# highest interpolant degree whose trace is summed exactly, with no product
# with Q: tr omega_1 and tr omega_2 need one pass over the diagonal and values
_EXACT_DEGREE = 2


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
    # |estimate - log det Q| is at most this when the trace was summed exactly
    error_bound: float | None = None
    # quadratic forms that stopped on their Gauss-Radau bracket, and Leja
    # forms whose moments broke down so that Lanczos took their probe over
    bracket_stops: int = 0
    handoffs: int = 0
    # the Leja forms' certified truncation error where every one converged
    # on a bracket, its moments' or Lanczos's (``hutchpp_logdet``); None on
    # every other report
    truncation_bound: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


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
    # products with Q (Lanczos steps for SLQ): a vector action's interpolant
    # has this degree, a quadratic form's twice it
    degree: int
    converged: bool
    error_estimate: float
    # a quadratic form's ``ActionResult.stop``; None for a vector action
    stop: str | None = None


def _report(method, trace_estimate, *, queries, seed, t0, records=(), terms=(),
            sigma=1.0, n=0, enclosure=None, matvecs=0,
            error_bound=None, truncation_bound=None) -> LogDetReport:
    """The one assembly of a ``LogDetReport``.

    ``records`` holds one ``_ActionRecord`` per action (per probe for SLQ);
    the degree statistics, matvec total (their degrees, plus the ``matvecs``
    of the spectral enclosure), warnings, convergence flag and the counts of
    forms that stopped on their moments' bracket or were handed to Lanczos
    come from them.  ``trace_estimate`` may be a numpy scalar (the exact trace, an
    oracle); it is cast to a Python float here, and ``queries`` and
    ``seed`` to Python ints, so that the report's numbers, and comparisons
    on them, serialize with ``json``.
    ``terms`` are the m probe terms whose mean enters the estimate; the
    standard error is their sample standard deviation over sqrt(m), or None
    for m < 2.  ``n`` and ``sigma`` give the n*log(sigma) term, and the wall
    time runs from ``t0``; ``error_bound`` and ``truncation_bound`` are copied.
    """
    warnings = [
        f"{r.label}: not converged at degree {r.degree} "
        f"(error estimate {r.error_estimate:.3e})"
        for r in records if not r.converged
    ]
    trace_estimate = float(trace_estimate)
    n_log_sigma = n * math.log(sigma)
    return LogDetReport(
        method=method,
        estimate=n_log_sigma + trace_estimate,
        trace_estimate=trace_estimate,
        n_log_sigma=n_log_sigma,
        sigma=sigma,
        queries=int(queries),
        degrees=_degree_stats([r.degree for r in records]),
        seed=int(seed),
        wall_time=time.perf_counter() - t0,
        matvecs_total=matvecs + sum(r.degree for r in records),
        warnings=warnings,
        converged=all(r.converged for r in records),
        std_error=(float(np.std(terms, ddof=1)) / math.sqrt(len(terms))
                   if len(terms) >= 2 else None),
        enclosure=enclosure,
        error_bound=error_bound,
        bracket_stops=sum(r.stop == "bracket" for r in records),
        handoffs=sum(r.stop == "lanczos" for r in records),
        truncation_bound=truncation_bound,
    )


class _ActionEngine:
    """Shared setup for Leja actions on one matrix: the bounds (which carry the
    map), the normalization sigma = lambda_min with its logarithm,
    and the coefficients of log(z / sigma).

    The enclosure is asked first whether it certifies an exact trace at
    ``tol`` (``exact_degree``, with its certificate ``error_bound``, see
    ``_exact_trace``); if so, the coefficient table ``dd`` stops at that
    degree, since the exact trace reads nothing else, and ``forms`` is None.
    Otherwise ``dd`` holds the max_degree + 1 coefficients of the vector
    actions on the Leja nodes, and ``forms`` the 2 max_degree + 1 of the
    quadratic forms on the doubled sequence (``log_matvec``'s ``form``):
    both allow max_degree products per action.  ``dd`` is built when first
    read, so a Hutchinson run, which reads only ``forms``, never builds it.

    ``records`` keeps each action's diagnostics for the report, never its
    result vector.
    """

    def __init__(self, Q, bounds, max_degree, seed, tol):
        self.Q = Q
        self.bounds = estimate_interval(Q, seed=seed) if bounds is None else bounds
        self.enclosure_matvecs = self.bounds.matvecs if bounds is None else 0
        self.sigma = float(self.bounds.lambda_min)
        self.log_sigma = math.log(self.sigma)
        # r^(K+1) / (K+1) bounds the interpolation error on the interval
        # (module docstring); n times it bounds the exact trace's error
        r = 4.0 * self.bounds.gamma / self.bounds.lambda_min
        self.exact_degree = next((K for K in range(min(_EXACT_DEGREE, max_degree) + 1)
                                  if r ** (K + 1) / (K + 1) <= tol), None)
        K = self.exact_degree
        self.error_bound = None if K is None else Q.n * r ** (K + 1) / (K + 1)
        # a vector action of degree m reads coefficients 0..m, a form of k
        # products 0..2k of the doubled sequence
        self.nodes = generate_fast_leja((max_degree if K is None else K) + 1)
        self.forms = (None if K is not None else
                      self._table(np.repeat(self.nodes, 2)[:2 * max_degree + 1]))
        self.records = []

    @functools.cached_property
    def dd(self):
        return self._table(self.nodes)

    def _table(self, nodes):
        dd = divided_differences_log(nodes, self.bounds)
        # the table is new on every call: d_0 becomes log(z_0 / sigma)
        dd.coeffs[0] -= self.log_sigma
        return dd

    def act_all(self, phase, vector, count, tol, images=None, share=None):
        """Act on ``vector(j)`` for j < count.

        With ``images``, column j receives log(Q/sigma) vector(j), to
        relative tolerance ``tol``, and the list returned is empty.
        Without, each action is a quadratic form of the doubled table that
        stops once its bracket on v' log(Q/sigma) v is at most ``tol *
        share`` wide, absolutely: ``log_matvec``'s rtol is tol * (share /
        ||v||^2), and a zero v's form is 0 at 0 products.  Their values are
        returned in order.  Each action is recorded as "<phase> action j".
        """
        qforms = []
        for j in range(count):
            v = vector(j)
            if images is None:
                norm_sq = ddot(v, v)
                rtol = tol * (share / norm_sq) if norm_sq > 0 else tol
                res = log_matvec(self.Q, v, self.forms, rtol, form=True)
                qforms.append(res.form)
            else:
                res = log_matvec(self.Q, v, self.dd, tol)
                images[:, j] = res.vector
            self.records.append(_ActionRecord(f"{phase} action {j}", res.degree_used,
                                              res.converged, res.error_estimate,
                                              res.stop))
            del res     # the next action must not run with this alive
        return qforms


def _exact_trace(eng):
    """tr P_K(Q) for K = ``eng.exact_degree``, the smallest K <= min(2,
    max_degree) whose certificate ``eng.error_bound`` = n r^(K+1) / (K+1)
    is at most n times the tolerance the engine was built with.

    P_K interpolates log(z / sigma), so the trace approximates
    log det(Q/sigma) within ``eng.error_bound`` provided the engine's
    interval encloses the spectrum, which the actions assume as well.  With
    z_k = c + gamma xi_k the k-th mapped Leja node and a = diag(Q),

        tr omega_1 = sum(a - z_0) / gamma,
        tr omega_2 = [sum((a - z_0)(a - z_1)) + sum_{i != j} q_ij^2] / gamma^2,

    summed over blocks of rows of the matrix's held diagonal
    (``sparse._row_blocks``), each shifted into one block-sized buffer; no
    product with Q.
    """
    iv = eng.bounds
    degree = eng.exact_degree
    Q = eng.Q
    d = eng.dd.coeffs
    trace = Q.n * d[0]
    if degree == 0:
        return trace
    z0, z1 = (iv.c + iv.gamma * eng.dd.nodes[:2]).tolist()
    shifted = squares = 0.0     # sum(a - z_0) and sum((a - z_0)^2)
    blocks = list(_row_blocks(Q.n))
    buffer = np.empty(blocks[0][1])
    for r0, r1 in blocks:
        block = np.subtract(Q.diagonal[r0:r1], z0, out=buffer[:r1 - r0])
        shifted += float(block.sum())
        if degree == 2:
            squares += ddot(block, block)
    trace += d[1] * shifted / iv.gamma
    if degree == 2:     # (a - z_0)(a - z_1) = (a - z_0)^2 - (z_1 - z_0)(a - z_0)
        # sum_{i != j} q_ij^2; rounding leaves about eps * sum(a^2) in it,
        # which d_2 / gamma^2 ~ 1 / (2 lambda^2) scales to about eps * n
        off = ddot(Q.values, Q.values) - ddot(Q.diagonal, Q.diagonal)
        trace += d[2] * (squares - (z1 - z0) * shifted + off) / iv.gamma ** 2
    return trace


def _leja_trace(method, Q, m_vec, k, action_tol, seed, bounds, max_degree):
    """Hutch++ over Leja actions with a sketch of k columns; k = 0 is Hutchinson.

    The exact trace of ``_exact_trace`` is returned instead, with
    ``queries`` 0, whenever the enclosure certifies one.  With k = 0 there
    is no sketch, QR or deterministic phase: the basis is empty, and the
    m_vec probes, named "probe" rather than "residual", are the first draw
    of ``default_rng(seed)``; each takes all of n * action_tol, m of them
    at weight 1/m, so its rtol is action_tol since ||g||^2 = n.
    """
    if not action_tol > 0:      # NaN too: every action would stop at degree 0
        raise ValueError("action_tol must be positive")
    if not action_tol < 1:      # an error of ||v|| or more asks for no correct digit
        raise ValueError("action_tol must be below 1")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    t0 = time.perf_counter()
    eng = _ActionEngine(Q, bounds, max_degree, seed, action_tol)
    n = Q.n
    if eng.exact_degree is not None:
        return _report(method, _exact_trace(eng), queries=0, seed=seed, t0=t0,
                       sigma=eng.sigma, n=n, enclosure=eng.bounds.method,
                       matvecs=eng.enclosure_matvecs, error_bound=eng.error_bound)
    rng = np.random.default_rng(seed)
    n_res = m_vec - 2 * k
    basis = np.empty((n, 0), order="F")
    if k:
        sketch = _rademacher(rng, n, k)
        y = np.empty((n, k), order="F")
        eng.act_all("sketch", lambda j: _column(sketch, j), k, math.sqrt(action_tol),
                    images=y)
        del sketch

        # the basis is formed in y's storage; the actions have already checked
        # that every iterate is finite
        basis, r = scipy.linalg.qr(y, mode="economic", overwrite_a=True,
                                   check_finite=False)
        rdiag = np.abs(np.diag(r))
        keep = (rdiag > 0.0) & (rdiag >= 1e-12 * rdiag.max())  # zero sketch: no basis
        if not keep.all():
            basis = np.asfortranarray(basis[:, keep])

    # the forms' shares of n * action_tol, by weight in the estimate
    kept = basis.shape[1]
    det_term = sum(eng.act_all("deterministic", lambda j: basis[:, j], kept, action_tol,
                               share=n / (kept + n_res)))
    probes = _rademacher(rng, n, n_res)

    def deflated(j):
        u = _column(probes, j)
        if basis.shape[1]:      # u -= A (A' u), in place
            u = dgemv(-1.0, basis, dgemv(1.0, basis, u, trans=1), beta=1.0, y=u,
                      overwrite_y=True)
        return u

    terms = eng.act_all("residual" if k else "probe", deflated, n_res, action_tol,
                        share=n * n_res / (kept + n_res))
    res_term = sum(terms) / n_res
    forms = eng.records[k:]
    truncation = (sum(r.error_estimate for r in forms[:kept])
                  + sum(r.error_estimate for r in forms[kept:]) / n_res
                  if all(r.converged and r.stop for r in forms) else None)
    return _report(method, det_term + res_term, queries=m_vec, seed=seed, t0=t0,
                   records=eng.records, terms=terms, sigma=eng.sigma, n=n,
                   enclosure=eng.bounds.method, matvecs=eng.enclosure_matvecs,
                   truncation_bound=truncation)


def hutchpp_logdet(Q: SparseMatrixCSR, m_vec: int, action_tol: float = DEFAULT_TOL,
                   seed: int = 0, bounds: SpectralInterval | None = None,
                   max_degree: int = DEFAULT_MAX_DEGREE) -> LogDetReport:
    """Hutch++ estimate of log det Q with Leja-interpolated actions.

    With k = floor(m_vec / 3): a Rademacher sketch of k columns is pushed
    through log(Q/sigma), an orthonormal basis A of the result captures the
    dominant range (columns with negligible QR diagonal are dropped), the
    trace over that basis is summed exactly, and the leftover trace is
    estimated by Hutchinson probes deflated by A.  Total actions ~= m_vec.
    Every action interpolates log(z / sigma) at the fast Leja points of the
    enclosing interval, with divided differences from one trapezoid sum.

    ``action_tol``, in (0, 1), sets the budget B = n * action_tol that the
    quadratic forms making up the estimate share by their weights in it:
    each of the k' deterministic forms on the basis columns kept (weight 1)
    gets B / (k' + m), each of the m = m_vec - 2k residual ones (weight
    1/m) m B / (k' + m), the split that spends the fewest products (README).
    Each is a form of ``log_matvec`` on the doubled Leja sequence, which
    builds no vector log(Q/sigma) v, and stops once the Gauss-Radau bracket
    of its own products' inner products (``quadrature.Bracket``) is no
    wider than its share, and returns its midpoint; where those moments
    break down it hands its probe to Lanczos, which stops on the same
    bracket (``log_matvec``).  ``report.bracket_stops`` and
    ``report.handoffs`` count the two.  Where every form converged on a
    bracket, ``report.truncation_bound`` (the deterministic forms'
    half-widths plus the mean of the residual ones') bounds their
    truncation error by B / 2, but not the probes' Monte Carlo error: at
    1e-2 the 12-query estimate of ``gen_gmrf_grid(30, -0.24)`` is 4.58%
    off, and at 0.5 9.54% off.  A Ritz value below the interval's lower
    end proves that the interval does not enclose the spectrum, and the
    estimate is refused.  The sketch actions run to
    ``sqrt(action_tol)``: the estimator is unbiased for any basis that does
    not depend on the residual probes, and a basis off by delta changes the
    residual operator (I - AA') log(Q/sigma) (I - AA') only at order
    delta^2, so the sketch needs about the square root of the tolerance the
    estimate needs.  Non-converged actions (sketch ones included) are
    reported in ``warnings``, never silently accepted.  Without ``bounds``
    the spectrum is enclosed by ``estimate_interval(Q, seed=seed)``; its
    time and products with Q count in the wall time and ``matvecs_total``,
    and ``report.enclosure`` names the route.  The Gershgorin circles were
    taken when Q was built, so the wall time holds no pass over Q's
    entries for them.

    When the enclosure is narrow enough that, with r = (lambda_max -
    lambda_min) / lambda_min, r^(K+1) / (K+1) <= ``action_tol`` for some
    K <= min(2, max_degree), no probe is drawn: the estimate is the exact
    trace of the degree-K interpolant for the smallest such K, summed from
    the diagonal and the stored values of Q.  Its error is at most
    ``report.error_bound`` = n r^(K+1) / (K+1), the same budget B the
    probes' forms share, provided ``bounds`` (given or
    found) encloses the spectrum, as the actions assume too.  Such a report
    has ``queries`` 0, ``std_error`` None, all-zero ``degrees`` and, in
    ``matvecs_total``, only the enclosure's products; ``error_bound`` is
    None on every other report.
    """
    if m_vec < 3:
        raise ValueError("Hutch++ needs at least 3 matvec queries")
    return _leja_trace("leja-hutchpp", Q, m_vec, m_vec // 3, action_tol, seed, bounds,
                       max_degree)


def hutchinson_logdet(Q: SparseMatrixCSR, m_vec: int, action_tol: float = DEFAULT_TOL,
                      seed: int = 0, bounds: SpectralInterval | None = None,
                      max_degree: int = DEFAULT_MAX_DEGREE) -> LogDetReport:
    """Plain Monte Carlo baseline: Hutch++ with an empty sketch, the average of
    m_vec Rademacher quadratic forms; options as in ``hutchpp_logdet``."""
    if m_vec < 1:
        raise ValueError("need at least one query")
    return _leja_trace("hutchinson", Q, m_vec, 0, action_tol, seed, bounds, max_degree)


def slq_logdet(Q: SparseMatrixCSR, m_l: int, n_v: int, seed: int = 0) -> LogDetReport:
    """Stochastic Lanczos quadrature baseline.

    For each of ``n_v`` Rademacher probes, plain Lanczos yields a Gauss
    rule G for v' log(Q) v in at most ``m_l`` steps; the estimate is the
    probe average.  Where Q's raw Gershgorin lower end ``Q.gershgorin[0]``
    is positive, a probe may stop earlier on its Gauss-Radau bracket with a
    node there (``quadrature._lanczos_quadrature``); its record keeps half
    the bracket's width as its error estimate, and ``report.bracket_stops``
    counts it.  Its breakdown rule is relative to the scale of Q
    (``spectral._lanczos``).  No normalization is applied: negative log
    eigenvalues enter the quadrature directly.  A probe holds two Lanczos
    vectors, so an estimate holds about 5.3 n-vectors in all at 10 probes
    (the int8 probe block, one float probe, the two vectors and the product
    being formed), not the m_l + 4 of an n x m_l basis.  ``matvecs_total``
    is the sum of the probes' degrees, the steps they took.
    """
    if m_l < 1:
        raise ValueError("Lanczos degree must be at least 1")
    if n_v < 1:
        raise ValueError("need at least one probe")
    t0 = time.perf_counter()
    m_sp = Q.to_scipy()
    probes = _rademacher(np.random.default_rng(seed), Q.n, n_v)
    total, terms, records = 0.0, [], []
    for j in range(n_v):
        val, steps, half, _ = _lanczos_quadrature(m_sp, _column(probes, j), m_l,
                                               Q.gershgorin[0])
        total += val
        terms.append(val)
        records.append(_ActionRecord(f"probe {j}", steps, True, half or 0.0,
                                     None if half is None else "bracket"))
    return _report("slq", total / n_v, queries=n_v, seed=seed, t0=t0, records=records,
                   terms=terms)


def estimate(Q: SparseMatrixCSR, method: str, *, queries: int = 12, probes: int = 30,
             slq_degree: int = 40, tol: float = DEFAULT_TOL, seed: int = 0,
             max_degree: int = DEFAULT_MAX_DEGREE) -> LogDetReport:
    """log det Q by one of ``METHODS``, with the command line's defaults.

    ``leja-hutchpp`` and ``hutchinson`` spend ``queries`` Leja actions (at
    most ``max_degree`` products with Q each, where a quadratic form's
    interpolant after k products has degree 2k) on the interval that
    ``estimate_interval(Q, seed=seed)`` chooses
    (Gershgorin, or Lanczos when Gershgorin's condition number exceeds 1e4;
    ``report.enclosure``), with divided differences from one trapezoid sum
    (``divided_differences_log``).  Their quadratic forms share a
    truncation budget of n * ``tol`` by their weights in the estimate, each
    stopped on a Gauss-Radau bracket, its moments' or, where they break
    down, Lanczos's within the same cap (``log_matvec``), and
    Hutch++ runs its sketch actions to ``sqrt(tol)`` relative to the
    probe's norm (``hutchpp_logdet``).  When that interval certifies an
    interpolant of degree at most 2 to ``tol``, the estimate is its exact
    trace, with no probe and with ``report.error_bound`` set (see
    ``hutchpp_logdet``).
    The wall time and matvec total include that enclosure, but not the
    Gershgorin pass, which Q made at construction.  ``slq`` runs
    ``probes`` probes of at most ``slq_degree`` Lanczos steps each (fewer
    where a probe's Gauss-Radau bracket closes, see ``slq_logdet``) and
    needs no enclosure.
    The exact methods read Q alone: ``exact-band`` is banded Cholesky at
    Q's own bandwidth, ``exact-analytic`` the closed form of the lattice
    ``gen_gmrf_grid(g, theta)`` that Q is (``lattice_of``), or a refusal.
    Every method refuses a seed that is not a non-negative integer.
    """
    seed = _checked_seed(seed)
    if method in ("leja-hutchpp", "hutchinson"):
        strategy = hutchpp_logdet if method == "leja-hutchpp" else hutchinson_logdet
        return strategy(Q, queries, action_tol=tol, seed=seed,
                        max_degree=max_degree)
    if method == "slq":
        return slq_logdet(Q, slq_degree, probes, seed=seed)
    t0 = time.perf_counter()
    if method == "exact-band":
        value = band_logdet_cholesky(Q, Q.bandwidth())
    elif method == "exact-analytic":
        value = gmrf_grid_logdet_analytic(*lattice_of(Q))
    else:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    return _report(method, value, queries=0, seed=seed, t0=t0)
