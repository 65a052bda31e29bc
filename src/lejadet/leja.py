"""Fast Leja points on [-2, 2] and their mapping to interpolation nodes.

The sequence starts at the right endpoint and greedily maximizes the
product of distances to the points already accepted, over a candidate set
made of the midpoints of adjacent accepted points (plus any endpoint not
yet taken).  Accepting a candidate replaces it with the two midpoints it
creates, so the candidate set tracks the refinement of the interval.

Points are generated once per process and shared: requesting m points
always returns the first m entries of the same sequence, which makes the
sequences nested by construction.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field

import numpy as np

from .spectral import MapParams

__all__ = ["LejaSequence", "generate_fast_leja", "map_nodes", "dump_points"]

DEFAULT_POOL_SIZE = 512


@dataclass(frozen=True)
class LejaSequence:
    """Ordered fast Leja points on [-2, 2]."""

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def __len__(self):
        return self.count


class _Pool:
    """Process-wide growing sequence with its candidate bookkeeping.

    ``extend_to`` holds a lock, so concurrent callers each get a prefix of
    the one sequence.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.accepted = [2.0]          # acceptance order; xi_0 is the right endpoint
        self.sorted = [2.0]
        self.cand = [-2.0]             # left endpoint is the only initial candidate
        self.prod = [4.0]              # |-2 - 2|

    def extend_to(self, count):
        """The first ``count`` accepted points, generating any still missing."""
        with self._lock:
            while len(self.accepted) < count:
                self._accept_next()
            return self.accepted[:count]

    def _accept_next(self):
        best = max(range(len(self.prod)), key=lambda i: (self.prod[i], -self.cand[i]))
        new = self.cand.pop(best)
        self.prod.pop(best)
        for i, c in enumerate(self.cand):
            self.prod[i] *= abs(c - new)
        pos = bisect.bisect_left(self.sorted, new)
        neighbors = []
        if pos > 0:
            neighbors.append(self.sorted[pos - 1])
        if pos < len(self.sorted):
            neighbors.append(self.sorted[pos])
        self.sorted.insert(pos, new)
        self.accepted.append(new)
        pts = np.asarray(self.accepted)
        for nb in neighbors:
            mid = 0.5 * (new + nb)
            self.cand.append(mid)
            self.prod.append(float(np.prod(np.abs(mid - pts))))


_POOL = _Pool()


def generate_fast_leja(count: int) -> LejaSequence:
    """First ``count`` fast Leja points on [-2, 2].

    On exact product ties the smallest candidate wins, which keeps the
    sequence deterministic.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    return LejaSequence(np.asarray(_POOL.extend_to(count)))


def map_nodes(seq: LejaSequence, mp: MapParams) -> np.ndarray:
    """Interpolation nodes z_i = c + gamma * xi_i on the spectral interval."""
    return mp.c + mp.gamma * seq.points


def dump_points(seq: LejaSequence, path) -> None:
    """One point per line, round-trip decimal precision (fixture exchange)."""
    np.savetxt(path, seq.points, fmt="%.17g")
