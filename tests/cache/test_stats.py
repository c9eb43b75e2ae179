"""Tests for counters, registries and timelines."""

import itertools

import pytest

from repro.cache.stats import (
    OP_DELETE,
    OP_GET,
    OP_SET,
    AccessOutcome,
    HitMissCounter,
    OpCounter,
    StatsRegistry,
    TimelineRecorder,
    pack_outcome,
)


def outcome(hit, app="a", op="get", slab=0, shadow=False, evicted=0):
    return AccessOutcome(
        hit=hit, app=app, op=op, slab_class=slab,
        shadow_hit=shadow, evicted=evicted,
    )


class TestHitMissCounter:
    def test_hit_rate(self):
        counter = HitMissCounter()
        counter.record(outcome(True))
        counter.record(outcome(False))
        counter.record(outcome(False))
        assert counter.hit_rate() == pytest.approx(1 / 3)
        assert counter.misses == 2

    def test_sets_do_not_affect_hit_rate(self):
        counter = HitMissCounter()
        counter.record(outcome(False, op="set"))
        assert counter.hit_rate() == 0.0
        assert counter.sets == 1
        assert counter.gets == 0

    def test_empty_hit_rate_is_zero(self):
        assert HitMissCounter().hit_rate() == 0.0

    def test_merge(self):
        a, b = HitMissCounter(), HitMissCounter()
        a.record(outcome(True))
        b.record(outcome(False, evicted=2))
        a.merge(b)
        assert a.gets == 2
        assert a.evictions == 2


class TestStatsRegistry:
    def test_per_app_and_per_class(self):
        registry = StatsRegistry()
        registry.record(outcome(True, app="x", slab=1))
        registry.record(outcome(False, app="x", slab=2))
        registry.record(outcome(True, app="y", slab=1))
        assert registry.app_hit_rate("x") == pytest.approx(0.5)
        assert registry.app_hit_rate("y") == pytest.approx(1.0)
        assert registry.app_hit_rate("missing") == 0.0
        x_classes = registry.class_counters_for("x")
        assert set(x_classes) == {1, 2}
        assert registry.total.gets == 3

    def test_record_code_bulk_equals_repeated_record_code(self):
        """A bulk flush of ``count`` equals ``count`` single records.

        ``record_code`` delegates to ``record_code_bulk`` (one bit
        decode), so this sweep over every hit/shadow/dead flag
        combination, op, slab class and eviction count pins the part
        that can still go wrong: every counter scaling with ``count``.
        """
        codes = [
            pack_outcome(hit, slab, shadow, evicted, dead=dead)
            for hit, shadow, dead in itertools.product(
                (False, True), repeat=3
            )
            for slab in (None, 0, 3)
            for evicted in (0, 1, 5)
        ]
        for op in (OP_GET, OP_SET, OP_DELETE):
            for code in codes:
                for count in (1, 2, 7):
                    sequential = StatsRegistry()
                    for _ in range(count):
                        sequential.record_code("app", op, code)
                    bulk = StatsRegistry()
                    bulk.record_code_bulk("app", op, code, count)
                    for seq_reg, bulk_reg in (
                        (sequential.total, bulk.total),
                        (sequential.by_app["app"], bulk.by_app["app"]),
                    ):
                        assert (
                            seq_reg.get_hits,
                            seq_reg.get_misses,
                            seq_reg.sets,
                            seq_reg.shadow_hits,
                            seq_reg.evictions,
                            seq_reg.dead_requests,
                        ) == (
                            bulk_reg.get_hits,
                            bulk_reg.get_misses,
                            bulk_reg.sets,
                            bulk_reg.shadow_hits,
                            bulk_reg.evictions,
                            bulk_reg.dead_requests,
                        )
                    assert set(sequential.by_app_class) == set(
                        bulk.by_app_class
                    )


class TestOpCounter:
    def test_total_and_merge(self):
        ops = OpCounter(hash_lookups=2, inserts=1)
        other = OpCounter(promotes=3, routes=1)
        ops.merge(other)
        assert ops.total() == 7


class TestTimelineRecorder:
    def test_samples_at_interval(self):
        recorder = TimelineRecorder(interval=10.0)
        assert recorder.maybe_sample(0.0, {"x": 1.0}) is True
        assert recorder.maybe_sample(5.0, {"x": 2.0}) is False
        assert recorder.maybe_sample(10.0, {"x": 3.0}) is True
        rows = recorder.as_rows()
        assert len(rows) == 2
        assert rows[1][1]["x"] == 3.0

    def test_new_series_backfilled(self):
        recorder = TimelineRecorder(interval=1.0)
        recorder.maybe_sample(0.0, {"a": 1.0})
        recorder.maybe_sample(1.0, {"a": 2.0, "b": 9.0})
        rows = recorder.as_rows()
        assert rows[0][1]["b"] == 0.0
        assert rows[1][1]["b"] == 9.0

    def test_missing_series_carries_forward(self):
        recorder = TimelineRecorder(interval=1.0)
        recorder.maybe_sample(0.0, {"a": 5.0})
        recorder.maybe_sample(1.0, {})
        assert recorder.as_rows()[1][1]["a"] == 5.0
