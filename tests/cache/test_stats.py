"""Tests for counters and registries."""

import itertools

import pytest

from repro.cache.stats import (
    OP_DELETE,
    OP_GET,
    OP_SET,
    HitMissCounter,
    OpCounter,
    StatsRegistry,
    pack_outcome,
)

HIT = pack_outcome(True, 0)
MISS = pack_outcome(False, 0)


def counter_after(*records):
    """The registry total after recording ``(op, code)`` pairs."""
    registry = StatsRegistry()
    for op, code in records:
        registry.record_code("a", op, code)
    return registry.total


class TestHitMissCounter:
    def test_hit_rate(self):
        counter = counter_after((OP_GET, HIT), (OP_GET, MISS), (OP_GET, MISS))
        assert counter.hit_rate() == pytest.approx(1 / 3)
        assert counter.misses == 2

    def test_sets_do_not_affect_hit_rate(self):
        counter = counter_after((OP_SET, MISS))
        assert counter.hit_rate() == 0.0
        assert counter.sets == 1
        assert counter.gets == 0

    def test_empty_hit_rate_is_zero(self):
        assert HitMissCounter().hit_rate() == 0.0

    def test_merge(self):
        a = counter_after((OP_GET, HIT))
        b = counter_after((OP_GET, pack_outcome(False, 0, evicted=2)))
        a.merge(b)
        assert a.gets == 2
        assert a.evictions == 2


class TestStatsRegistry:
    def test_per_app_and_per_class(self):
        registry = StatsRegistry()
        registry.record_code("x", OP_GET, pack_outcome(True, 1))
        registry.record_code("x", OP_GET, pack_outcome(False, 2))
        registry.record_code("y", OP_GET, pack_outcome(True, 1))
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

