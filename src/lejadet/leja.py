"""Fast Leja points on [-2, 2] (Baglama, Calvetti and Reichel, ETNA 1998).

The sequence starts at the right endpoint and greedily maximizes the
product of distances to the points already accepted, over a candidate set
made of the midpoints of adjacent accepted points (plus any endpoint not
yet taken).  Accepting a candidate replaces it with the two midpoints it
creates, so the candidate set tracks the refinement of the interval.

Points are generated once per process and shared: requesting m points
always returns the first m entries of the same sequence, which makes the
sequences nested by construction.  An interval's ``c + gamma * xi`` maps
them onto it.
"""

from __future__ import annotations

import bisect
import threading

import numpy as np

__all__ = ["generate_fast_leja"]

DEFAULT_POOL_SIZE = 512


class _Pool:
    """Process-wide growing sequence with its candidate bookkeeping.

    The accepted points, the candidates and their distance products are the
    rows of one array that doubles when full.  Each step takes the largest
    product (the smallest candidate on a tie), moves the last candidate into
    its slot, scales the other products by their distance to the new point
    and appends its midpoints.  ``extend_to`` holds a lock, so concurrent
    callers each get a prefix of the one sequence.
    """

    CAPACITY = 64                       # initial array length

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 1                 # accepted points; xi_0 is the right endpoint
        self.sorted = [2.0]
        self._rows = np.empty((3, self.CAPACITY))      # points, candidates, products
        self._rows[:, 0] = 2.0, -2.0, 4.0      # xi_0; the left endpoint at |-2 - 2|
        self._n_cand = 1

    def extend_to(self, count):
        """Read-only copy of the first ``count`` accepted points, generating
        any still missing."""
        with self._lock:
            while self.count < count:
                self._accept_next()
            points = self._rows[0, :count].copy()
        points.flags.writeable = False
        return points

    def _accept_next(self):
        m, nc = self.count, self._n_cand - 1
        if m == self._rows.shape[1]:   # this step leaves m + 1 points, <= m + 1 gaps
            self._rows = np.concatenate((self._rows, np.empty_like(self._rows)), axis=1)
        pts, cand, prod = self._rows
        top = np.flatnonzero(prod[:nc + 1] == prod[:nc + 1].max())
        best = top[np.argmin(cand[top])]
        new = float(cand[best])
        cand[best], prod[best] = cand[nc], prod[nc]
        prod[:nc] *= np.abs(cand[:nc] - new)
        pos = bisect.bisect_left(self.sorted, new)
        neighbors = self.sorted[max(pos - 1, 0):pos + 1]    # nearest on either side
        self.sorted.insert(pos, new)
        self.count += 1
        pts[m] = new
        for nb in neighbors:
            cand[nc] = mid = 0.5 * (new + nb)
            prod[nc] = np.prod(np.abs(mid - pts[:m + 1]))
            nc += 1
        self._n_cand = nc


_POOL = _Pool()


def generate_fast_leja(count: int) -> np.ndarray:
    """First ``count`` fast Leja points on [-2, 2], as a read-only float64 array.

    On exact product ties the smallest candidate wins, which keeps the
    sequence deterministic.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    return _POOL.extend_to(count)
