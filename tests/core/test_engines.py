"""End-to-end tests for HillClimbEngine and CliffhangerEngine."""

import pytest

from repro.cache.slabs import SlabGeometry
from repro.cache.stats import OpCounter
from repro.core.engine import CliffhangerEngine, HillClimbEngine
from repro.workloads.trace import Request

GEO = SlabGeometry.default()


def get(key, size=100, app="a", t=0.0):
    return Request(time=t, app=app, key=key, op="get", value_size=size)


@pytest.mark.parametrize("engine_cls", [HillClimbEngine, CliffhangerEngine])
class TestCommonEngineBehaviour:
    def test_fill_on_miss(self, engine_cls):
        engine = engine_cls("a", 1 << 20, GEO)
        assert engine.process(get("k")).hit is False
        assert engine.process(get("k")).hit is True

    def test_budget_respected(self, engine_cls, rng):
        engine = engine_cls("a", 64 * 1024, GEO)
        for i in range(3000):
            engine.process(get(f"k{rng.randrange(800)}", size=rng.choice([60, 400, 2000])))
        assert engine.used_bytes() <= engine.budget_bytes + 1e-6
        reserved = sum(engine.capacities().values())
        assert reserved <= engine.budget_bytes + 1e-6

    def test_shrink_budget(self, engine_cls, rng):
        engine = engine_cls("a", 256 * 1024, GEO)
        for i in range(2000):
            engine.process(get(f"k{i}", size=200))
        engine.shrink_budget(128 * 1024)
        assert engine.used_bytes() <= engine.budget_bytes + 1e-6

    def test_grow_budget_enables_more_caching(self, engine_cls):
        engine = engine_cls("a", 8 * 256, GEO)
        for i in range(64):
            engine.process(get(f"k{i}", size=100))
        engine.grow_budget(1 << 20)
        for i in range(64):
            engine.process(get(f"k{i}", size=100))
        hits = sum(
            engine.process(get(f"k{i}", size=100)).hit for i in range(64)
        )
        assert hits == 64

    def test_delete(self, engine_cls):
        engine = engine_cls("a", 1 << 20, GEO)
        engine.process(get("k"))
        outcome = engine.process(
            Request(0.0, "a", "k", "delete", value_size=100)
        )
        assert outcome.hit is True
        assert engine.process(get("k")).hit is False

    def test_ops_counted(self, engine_cls):
        engine = engine_cls("a", 1 << 20, GEO)
        engine.process(get("k"))
        engine.process(get("k"))
        assert engine.ops.hash_lookups == 2
        assert engine.ops.inserts >= 1
        assert engine.ops.promotes >= 1

    def test_swapped_op_counter_keeps_counting(self, engine_cls):
        """``perfmodel.microbench`` replaces ``engine.ops`` after its
        warm-up: the engine must count into whatever is there now."""
        engine = engine_cls("a", 4 * 256, GEO)
        for i in range(8):
            engine.process(get(f"k{i}"))
        warm_up = engine.ops
        seen = warm_up.total()
        engine.ops = OpCounter()
        for i in range(8):
            engine.process(get(f"k{i}"))  # cache of 4: all misses + fills
        engine.process(get("k7"))
        assert warm_up.total() == seen
        assert engine.ops.hash_lookups == 9
        assert engine.ops.inserts == 8
        assert engine.ops.evictions == 8
        assert engine.ops.promotes == 1


class TestHillClimbingAcrossClasses:
    def test_memory_follows_demand_shift(self, rng):
        """Classic section 5.4 behaviour: traffic moves from one slab
        class to another; hill climbing follows."""
        engine = HillClimbEngine(
            "a",
            80 * 1024,
            GEO,
            credit_bytes=1024,
            shadow_bytes=32 * 1024,
            min_bytes=1024,
            seed=3,
        )
        # Phase 1: small items only (class 2).
        for i in range(15000):
            engine.process(get(f"s{rng.randrange(600)}", size=100))
        phase1 = dict(engine.capacities())
        # Phase 2: large items burst (class 5, 2048B chunks).
        for i in range(15000):
            engine.process(get(f"L{rng.randrange(200)}", size=1500))
        phase2 = dict(engine.capacities())
        assert phase2.get(5, 0.0) > phase1.get(5, 0.0)
        assert phase2.get(2, 1e18) < phase1.get(2, 0.0) + 1e-6

    def test_shadow_hit_reported_in_outcome(self):
        engine = HillClimbEngine("a", 4 * 256, GEO, shadow_bytes=1 << 16)
        for i in range(10):
            engine.process(get(f"k{i}", size=100))
        outcome = engine.process(get("k0", size=100))
        assert outcome.hit is False
        assert outcome.shadow_hit is True

    def test_policy_parameter(self):
        engine = HillClimbEngine("a", 1 << 20, GEO, policy="facebook")
        engine.process(get("k"))
        assert engine.process(get("k")).hit is True


class TestCliffhangerEngineFlags:
    def test_hill_only_never_splits(self, rng):
        engine = CliffhangerEngine(
            "a", 1 << 20, GEO, enable_cliff_scaling=False
        )
        for i in range(4000):
            engine.process(get(f"k{rng.randrange(900)}", size=100))
        assert all(q._split is False for q in engine.queues.values())

    def test_cliff_only_does_not_transfer_memory(self, rng):
        engine = CliffhangerEngine(
            "a", 1 << 20, GEO, enable_hill_climbing=False
        )
        for i in range(2000):
            engine.process(get(f"k{rng.randrange(300)}", size=100))
            engine.process(get(f"L{rng.randrange(300)}", size=3000))
        assert engine.climber.transfers == 0

    def test_scaled_constants_accepted(self):
        engine = CliffhangerEngine(
            "a", 1 << 20, GEO, probe_items=16, min_cliff_items=120
        )
        engine.process(get("k"))
        queue = engine.queues[2]
        assert queue.config.probe_items == 16
        assert queue.config.min_queue_items_for_cliff == 120
