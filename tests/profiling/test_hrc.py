"""Tests for hit-rate curves, hulls and cliff detection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.profiling.hrc import HitRateCurve


def sigmoid_curve():
    """A synthetic curve with a clear cliff between 100 and 200."""
    sizes = [0, 50, 100, 150, 200, 300]
    rates = [0.0, 0.05, 0.08, 0.30, 0.90, 0.95]
    return HitRateCurve(sizes, rates, total_requests=1000)


class TestConstruction:
    def test_from_stack_distances(self):
        distances = [None, 1, 2, None, 1, 5]
        curve = HitRateCurve.from_stack_distances(distances)
        # hits at capacity 2: distances 1,2,1 -> 3/6
        assert curve.hit_rate(2) == pytest.approx(0.5)
        assert curve.hit_rate(5) == pytest.approx(4 / 6)
        assert curve.total_requests == 6

    def test_all_cold_stream(self):
        curve = HitRateCurve.from_stack_distances([None] * 10, max_size=50)
        assert curve.hit_rate(50) == 0.0

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            HitRateCurve.from_stack_distances([])

    def test_compulsory_misses_cap_the_curve(self):
        distances = [None] * 5 + [1.0] * 5
        curve = HitRateCurve.from_stack_distances(distances)
        assert curve.hit_rates[-1] == pytest.approx(0.5)

    def test_sizes_must_increase(self):
        with pytest.raises(ConfigurationError):
            HitRateCurve([0, 5, 5], [0, 0.1, 0.2], 10)

    def test_must_start_at_zero(self):
        with pytest.raises(ConfigurationError):
            HitRateCurve([1, 5], [0.0, 0.5], 10)


class TestEvaluation:
    def test_interpolation_and_clamping(self):
        curve = sigmoid_curve()
        assert curve.hit_rate(125) == pytest.approx(0.19)
        assert curve.hit_rate(-5) == 0.0
        assert curve.hit_rate(10_000) == pytest.approx(0.95)


class TestHullAndCliffs:
    def test_hull_dominates_curve(self):
        curve = sigmoid_curve()
        hull = curve.concave_hull()
        for size in np.linspace(0, 300, 50):
            assert hull.hit_rate(size) >= curve.hit_rate(size) - 1e-9

    def test_cliff_detected(self):
        curve = sigmoid_curve()
        cliffs = curve.cliffs(tolerance=0.02)
        assert len(cliffs) == 1
        start, end = cliffs[0]
        assert start <= 100
        assert end >= 150

    def test_is_concave(self):
        concave = HitRateCurve([0, 10, 20, 30], [0, 0.5, 0.8, 0.9], 100)
        assert concave.is_concave()
        assert not sigmoid_curve().is_concave(tolerance=0.02)

    def test_anchors_for_size_inside_cliff(self):
        curve = sigmoid_curve()
        anchors = curve.hull_anchors_for(150, tolerance=0.02)
        assert anchors is not None
        left, right = anchors
        assert left < 150 < right

    def test_no_anchors_outside_cliff(self):
        curve = sigmoid_curve()
        assert curve.hull_anchors_for(290, tolerance=0.02) is None


class TestTransforms:
    def test_scale_sizes(self):
        curve = sigmoid_curve().scale_sizes(256, unit="bytes")
        assert curve.hit_rate(200 * 256) == pytest.approx(0.90)
        assert curve.unit == "bytes"

    def test_scale_requires_positive_factor(self):
        with pytest.raises(ConfigurationError):
            sigmoid_curve().scale_sizes(0)

    def test_resample_preserves_endpoints(self):
        curve = sigmoid_curve().resample(7)
        assert curve.sizes[0] == 0.0
        assert curve.sizes[-1] == 300.0
        assert len(curve.sizes) == 7

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(1, 500, allow_nan=False), min_size=2, max_size=100
        )
    )
    def test_curve_from_distances_is_monotone(self, raw):
        curve = HitRateCurve.from_stack_distances(raw)
        assert np.all(np.diff(curve.hit_rates) >= -1e-12)
        assert np.all(curve.hit_rates <= 1.0 + 1e-12)
