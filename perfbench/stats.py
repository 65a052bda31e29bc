"""The benchmark's own arithmetic: summaries, failure rules, computed bytes."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(count: int, beyond: int = 10) -> float | None:
    """Highest percentile with at least ``beyond`` samples above it, if any.

    A percentile is only reported when it is above the median; with fewer
    than ``2 * beyond`` samples there is none.
    """
    if count < 2 * beyond:
        return None
    return 100.0 * (1.0 - beyond / count)


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def rms(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("rms of no samples")
    return math.sqrt(sum(v * v for v in values) / len(values))


def relative_error(estimate: float, exact: float) -> float:
    return abs(estimate - exact) / abs(exact)


def classify(estimate: float | None, converged: bool | None, warned: list[str],
             exact: float, tol: float, error: str | None = None) -> str | None:
    """Why an estimate failed, or None if it passed.

    An estimate fails if its call raised (``error`` holds the message), its
    value is not finite, the report says ``converged=False``, the report or
    Python emitted any warning, or it misses the workload's relative-error
    tolerance.
    """
    if error is not None:
        return f"raised {error}"
    if estimate is None or not math.isfinite(estimate):
        return f"non-finite estimate {estimate!r}"
    if not converged:
        return "report.converged is False"
    if warned:
        return "warning: " + "; ".join(warned)
    err = relative_error(estimate, exact)
    if not err <= tol:
        return f"relative error {err:.3e} exceeds tolerance {tol:.1e}"
    return None


def spmv_bytes(n: int, nnz: int, value_bytes: int = 8, index_bytes: int = 4,
               vector_bytes: int = 8) -> int:
    """Computed bytes one CSR product y = Q x moves, each array touched once.

    Values and column indices are read once per stored entry, the row
    pointer once per row (n + 1 entries), x is read once and y written
    once.  Cache reuse of x is ignored, so this is a lower bound on traffic
    when the working set does not fit in cache.
    """
    return (nnz * (value_bytes + index_bytes) + (n + 1) * index_bytes
            + 2 * n * vector_bytes)
