import hashlib
import sys
import threading

import numpy as np
import pytest

from lejadet import leja
from lejadet.leja import DEFAULT_POOL_SIZE
from lejadet import generate_fast_leja


class TestGeneration:
    def test_first_point_is_right_endpoint(self):
        assert generate_fast_leja(1)[0] == 2.0

    def test_second_point_brute_force(self):
        # maximizer of |xi - 2| over a dense grid is the left endpoint
        grid = np.linspace(-2.0, 2.0, 1_000_001)
        best = grid[np.argmax(np.abs(grid - 2.0))]
        assert best == -2.0
        assert generate_fast_leja(2)[1] == -2.0

    def test_third_point_is_zero(self):
        # maximizer of (2 - xi)(xi + 2) = 4 - xi^2
        assert generate_fast_leja(3)[2] == 0.0

    def test_read_only_float64_array(self):
        # the pinned hash below fixes the values; a caller cannot change them
        pts = generate_fast_leja(DEFAULT_POOL_SIZE)
        assert isinstance(pts, np.ndarray) and pts.dtype == np.float64
        assert pts.shape == (DEFAULT_POOL_SIZE,)
        with pytest.raises(ValueError, match="read-only"):
            pts[0] = 0.0
        assert generate_fast_leja(1)[0] == 2.0

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            generate_fast_leja(0)

    def test_points_distinct_and_in_interval(self):
        pts = generate_fast_leja(256)
        assert np.unique(pts).size == pts.size
        assert pts.min() >= -2.0 and pts.max() <= 2.0

    def test_nestedness(self):
        short = generate_fast_leja(16)
        long = generate_fast_leja(128)
        assert np.array_equal(long[:16], short)

    def test_greedy_over_candidate_set(self):
        """Replay the construction: each accepted point maximizes the distance
        product over the candidate set (midpoints of adjacent accepted points
        plus unused endpoints), smallest candidate winning ties."""
        pts = generate_fast_leja(12)
        accepted = [2.0]
        candidates = {-2.0}
        for j in range(1, 12):
            arr = np.array(sorted(candidates))
            prods = np.prod(np.abs(arr[:, None] - np.array(accepted)[None, :]), axis=1)
            best = arr[prods >= prods.max()].min()
            assert pts[j] == best
            candidates.discard(best)
            snapshot = sorted(accepted)
            lo = max((p for p in snapshot if p < best), default=None)
            hi = min((p for p in snapshot if p > best), default=None)
            if lo is not None:
                candidates.add(0.5 * (best + lo))
            if hi is not None:
                candidates.add(0.5 * (best + hi))
            accepted.append(best)

    def test_products_near_grid_maximum(self):
        """The midpoint candidate set is a genuine discretization: against a
        dense-grid maximizer the distance products fall short by up to ~18%
        for early points (measured worst 0.8154 at j=9), never more."""
        pts = generate_fast_leja(13)
        grid = np.linspace(-2.0, 2.0, 100_001)
        for j in range(1, 13):
            mine = np.prod(np.abs(pts[j] - pts[:j]))
            best = np.max(np.prod(np.abs(grid[:, None] - pts[None, :j]), axis=1))
            assert mine >= 0.8 * best

    def test_pinned_sequence(self):
        """The points, hashed when they came from a list-based loop; they are
        dyadic rationals, so the bytes do not depend on the platform.  Fresh
        runs of other lengths give the same prefixes."""
        pts = generate_fast_leja(DEFAULT_POOL_SIZE)
        assert hashlib.sha256(pts.tobytes()).hexdigest() == (
            "4eac77217a71e79f9ee221a4eb7772a71ac7ba534783bda74cc3a63cd3e4626d")
        for count in (65, DEFAULT_POOL_SIZE):
            np.testing.assert_array_equal(leja._fast_leja(count), pts[:count])

    def test_longer_request_regenerates(self, monkeypatch):
        """A request past the kept run computes the longer one and keeps it."""
        reference = leja._fast_leja(401)
        monkeypatch.setattr(leja, "_points", leja._fast_leja(3))
        pts = generate_fast_leja(401)
        np.testing.assert_array_equal(pts, reference)
        assert not pts.flags.writeable
        assert leja._points.size == 401

    def test_concurrent_requests_get_prefixes(self, monkeypatch):
        """Threads asking for different lengths at once, from a one-point
        kept run, each get a prefix of the sequentially generated sequence."""
        reference = leja._fast_leja(300)
        monkeypatch.setattr(leja, "_points", leja._fast_leja(1))
        counts = [40, 300, 120, 250, 80, 200, 300, 160]
        start = threading.Barrier(len(counts))
        results = {}

        def request(i):
            start.wait()
            results[i] = generate_fast_leja(counts[i])

        threads = [threading.Thread(target=request, args=(i,))
                   for i in range(len(counts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)        # switch threads often to expose races
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, count in enumerate(counts):
            np.testing.assert_array_equal(results[i], reference[:count])
        # whichever run was kept last, it is a prefix too
        kept = leja._points
        np.testing.assert_array_equal(kept, reference[:kept.size])
