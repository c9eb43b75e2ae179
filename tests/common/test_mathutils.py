"""Tests for the concave hull."""

import numpy as np
from hypothesis import given, strategies as st

from repro.common.mathutils import concave_hull


class TestConcaveHull:
    def test_empty(self):
        assert concave_hull([]) == []

    def test_single_point(self):
        assert concave_hull([(1.0, 0.5)]) == [(1.0, 0.5)]

    def test_concave_input_is_unchanged(self):
        points = [(0, 0.0), (1, 0.5), (2, 0.8), (3, 0.9)]
        hull = concave_hull(points)
        assert hull == [(0.0, 0.0), (1.0, 0.5), (2.0, 0.8), (3.0, 0.9)]

    def test_convex_bump_is_bridged(self):
        # A cliff: flat then jump. The hull is the straight chord.
        points = [(0, 0.0), (5, 0.05), (9, 0.1), (10, 1.0)]
        hull = concave_hull(points)
        assert (5, 0.05) not in hull
        assert (9, 0.1) not in hull
        assert hull[0] == (0.0, 0.0)
        assert hull[-1] == (10.0, 1.0)

    def test_duplicate_x_keeps_max_y(self):
        hull = concave_hull([(0, 0.0), (1, 0.2), (1, 0.7), (2, 0.8)])
        assert (1.0, 0.7) in hull
        assert (1.0, 0.2) not in hull

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False),
                st.floats(0, 1, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_hull_dominates_points(self, points):
        """Property: the hull, linearly interpolated, sits at or above
        every input point within its x-range."""
        hull = concave_hull(points)
        xs = [p[0] for p in hull]
        ys = [p[1] for p in hull]
        for x, y in points:
            if xs[0] <= x <= xs[-1]:
                assert np.interp(x, xs, ys) >= y - 1e-9

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False),
                st.floats(0, 1, allow_nan=False),
            ),
            min_size=3,
            max_size=40,
        )
    )
    def test_hull_is_concave(self, points):
        """Property: consecutive hull slopes are non-increasing."""
        hull = concave_hull(points)
        slopes = []
        for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
            assert x1 > x0
            slopes.append((y1 - y0) / (x1 - x0))
        for s0, s1 in zip(slopes, slopes[1:]):
            assert s1 <= s0 + 1e-9

