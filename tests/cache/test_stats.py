"""Tests for the packed outcome layout, counters and registries."""

import ast
import itertools
from pathlib import Path

import pytest

from repro.cache import stats
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

LAYOUT_NAMES = ("CLASS_SHIFT", "CLASS_MASK", "EVICTED_SHIFT")


def layout_problems(namespace):
    """What is wrong with the packed layout in ``namespace`` (a module's
    ``vars``): a flag that is not one bit, two flags sharing bits, the
    slab-class field on a flag, or the eviction count below either."""
    flags = {k: v for k, v in namespace.items() if k.startswith("OUTCOME_")}
    class_field = namespace["CLASS_MASK"] << namespace["CLASS_SHIFT"]
    all_flags = 0
    problems = []
    for name, flag in flags.items():
        all_flags |= flag
        if flag <= 0 or flag & (flag - 1):
            problems.append(f"{name} is not a single flag bit")
        if class_field & flag:
            problems.append(f"the class field overlaps {name}")
    for (a, x), (b, y) in itertools.combinations(flags.items(), 2):
        if x & y:
            problems.append(f"{a} and {b} share bits")
    if (class_field | all_flags) >> namespace["EVICTED_SHIFT"]:
        problems.append("EVICTED_SHIFT is below the flags or class field")
    return problems


def layout_redefinitions(package, home):
    """``(file name, layout name)`` for each assignment of a layout name
    in a module under ``package`` other than ``home``."""
    found = []
    for path in sorted(package.rglob("*.py")):
        if path == home:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                name = getattr(target, "id", "")
                if name.startswith("OUTCOME_") or name in LAYOUT_NAMES:
                    found.append((path.name, name))
    return found


def test_packed_layout_has_no_overlaps_and_one_definition():
    """Every ``OUTCOME_*`` flag is one bit of its own, the slab-class
    field overlaps no flag, the eviction count sits above both, and no
    other module assigns a layout name."""
    assert layout_problems(vars(stats)) == []
    home = Path(stats.__file__)
    assert layout_redefinitions(home.parents[1], home) == []


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

