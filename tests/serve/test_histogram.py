"""Latency histogram: exact counters, bounded-error percentiles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.histogram import (
    CEILING,
    FLOOR,
    SUBBUCKETS,
    LatencyHistogram,
)

#: One bucket's growth factor bounds the relative error of percentiles.
GROWTH = 2.0 ** (1.0 / SUBBUCKETS)

#: Within [FLOOR, CEILING): the range where the relative-error bound
#: holds (below the floor everything reports as FLOOR by design).
LATENCIES = st.floats(
    min_value=FLOOR, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestRecording:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.percentile(0.99) == 0.0
        assert hist.mean() == 0.0
        summary = hist.summary_ms()
        assert summary["p50"] == 0.0 and summary["max"] == 0.0

    def test_exact_count_total_min_max(self):
        hist = LatencyHistogram()
        for value in (0.001, 0.5, 0.0002, 2.0):
            hist.record(value)
        assert hist.count == 4
        assert hist.total == pytest.approx(2.5012)
        assert hist.min == 0.0002
        assert hist.max == 2.0
        assert hist.mean() == pytest.approx(2.5012 / 4)

    def test_negative_clamped_to_zero(self):
        hist = LatencyHistogram()
        hist.record(-1.0)
        assert hist.min == 0.0
        assert hist.percentile(0.5) == 0.0

    def test_bad_quantile_raises(self):
        hist = LatencyHistogram()
        hist.record(0.01)
        with pytest.raises(ValueError):
            hist.percentile(1.5)
        with pytest.raises(ValueError):
            hist.percentile(-0.1)

    def test_beyond_ceiling_lands_in_last_bucket(self):
        hist = LatencyHistogram()
        hist.record(CEILING * 10)
        assert hist.count == 1
        assert hist.percentile(1.0) == CEILING * 10  # clamped to max


class TestPercentiles:
    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(LATENCIES, min_size=1, max_size=200))
    def test_relative_error_bounded(self, values):
        """Any percentile is within one bucket's growth of some observed
        value, and never exceeds the observed max."""
        hist = LatencyHistogram()
        for value in values:
            hist.record(value)
        for quantile in (0.0, 0.5, 0.95, 0.99, 1.0):
            estimate = hist.percentile(quantile)
            assert estimate <= max(values)
            assert any(
                value <= estimate * (1 + 1e-9)
                and estimate <= value * GROWTH * (1 + 1e-9)
                for value in values
            ) or estimate == max(values)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(LATENCIES, min_size=1, max_size=200))
    def test_percentiles_monotonic(self, values):
        hist = LatencyHistogram()
        for value in values:
            hist.record(value)
        quantiles = [0.1, 0.5, 0.9, 0.99, 1.0]
        estimates = [hist.percentile(q) for q in quantiles]
        assert estimates == sorted(estimates)

    def test_single_value_every_percentile(self):
        hist = LatencyHistogram()
        hist.record(0.004)
        for quantile in (0.01, 0.5, 0.999):
            assert hist.percentile(quantile) == pytest.approx(
                0.004, rel=1e-9
            )

    def test_summary_ms_keys_and_scale(self):
        hist = LatencyHistogram()
        hist.record(0.010)
        summary = hist.summary_ms()
        assert set(summary) == {"p50", "p95", "p99", "p999", "mean", "max"}
        assert summary["max"] == pytest.approx(10.0)
        assert summary["p50"] == pytest.approx(10.0, rel=1e-9)
        assert summary["mean"] == pytest.approx(10.0)
