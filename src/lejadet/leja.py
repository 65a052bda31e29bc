"""Fast Leja points on [-2, 2] (Baglama, Calvetti and Reichel, ETNA 1998).

The sequence starts at the right endpoint and greedily maximizes the
product of distances to the points already accepted, over a candidate set
made of the midpoints of adjacent accepted points (plus any endpoint not
yet taken).  Accepting a candidate replaces it with the two midpoints it
creates, so the candidate set tracks the refinement of the interval.

The construction is deterministic, so requesting m points always returns
the first m entries of the one sequence: the sequences are nested by
construction.  The longest run so far is kept read-only and sliced.  An
interval's ``c + gamma * xi`` maps the points onto it.
"""

from __future__ import annotations

import bisect

import numpy as np

__all__ = ["generate_fast_leja"]

DEFAULT_POOL_SIZE = 512


def _fast_leja(count):
    """The first ``count`` points, as a fresh read-only array.

    Each step takes the largest distance product (the smallest candidate on
    a tie), moves the last candidate into its slot, scales the other
    products by their distance to the new point and appends its midpoints.
    A step removes one candidate and adds at most two, so ``count + 1``
    candidate slots suffice.
    """
    pts, cand, prod = np.empty(count), np.empty(count + 1), np.empty(count + 1)
    pts[0], cand[0], prod[0] = 2.0, -2.0, 4.0      # xi_0; the left endpoint at |-2 - 2|
    ordered, nc = [2.0], 1                          # accepted points, sorted; candidates
    for m in range(1, count):
        top = np.flatnonzero(prod[:nc] == prod[:nc].max())
        best = top[np.argmin(cand[top])]
        new = float(cand[best])
        nc -= 1
        cand[best], prod[best] = cand[nc], prod[nc]
        prod[:nc] *= np.abs(cand[:nc] - new)
        pos = bisect.bisect_left(ordered, new)
        neighbors = ordered[max(pos - 1, 0):pos + 1]     # nearest on either side
        ordered.insert(pos, new)
        pts[m] = new
        for nb in neighbors:
            cand[nc] = mid = 0.5 * (new + nb)
            prod[nc] = np.prod(np.abs(mid - pts[:m + 1]))
            nc += 1
    pts.flags.writeable = False
    return pts


_points = np.empty(0)           # the longest run so far


def generate_fast_leja(count: int) -> np.ndarray:
    """First ``count`` fast Leja points on [-2, 2], as a read-only float64 array.

    On exact product ties the smallest candidate wins, which keeps the
    sequence deterministic.  A request past the kept run computes and keeps
    a fresh one; racing callers can only keep prefixes, so no lock is needed.
    """
    global _points
    if count < 1:
        raise ValueError("count must be at least 1")
    points = _points            # read once: another caller may rebind it
    if points.size < count:
        points = _points = _fast_leja(count)
    return points[:count]
