"""End-to-end tests for HillClimbEngine and CliffhangerEngine."""

import pytest

from repro.cache.engines import Engine
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import (
    OP_DELETE,
    OP_GET,
    OP_SET,
    OUTCOME_HIT,
    OUTCOME_SHADOW_HIT,
    OpCounter,
)
from repro.core.engine import (
    CliffhangerEngine,
    ClimbingEngine,
    HillClimbEngine,
)
from repro.sim import make_engine
from repro.workloads.trace import Request
from tests.conftest import serve

GEO = SlabGeometry.default()


def get(key, size=100, app="a", t=0.0):
    return Request(time=t, app=app, key=key, op="get", value_size=size)


@pytest.mark.parametrize("engine_cls", [HillClimbEngine, CliffhangerEngine])
class TestCommonEngineBehaviour:
    def test_fill_on_miss(self, engine_cls):
        engine = engine_cls("a", 1 << 20, GEO)
        assert not serve(engine, get("k")) & OUTCOME_HIT
        assert serve(engine, get("k")) & OUTCOME_HIT

    def test_budget_respected(self, engine_cls, rng):
        engine = engine_cls("a", 64 * 1024, GEO)
        for i in range(3000):
            serve(engine, get(f"k{rng.randrange(800)}", size=rng.choice([60, 400, 2000])))
        assert engine.used_bytes() <= engine.budget_bytes + 1e-6
        reserved = sum(engine.capacities().values())
        assert reserved <= engine.budget_bytes + 1e-6

    def test_shrink_budget(self, engine_cls, rng):
        engine = engine_cls("a", 256 * 1024, GEO)
        for i in range(2000):
            serve(engine, get(f"k{i}", size=200))
        engine.shrink_budget(128 * 1024)
        assert engine.used_bytes() <= engine.budget_bytes + 1e-6

    def test_grow_budget_enables_more_caching(self, engine_cls):
        engine = engine_cls("a", 8 * 256, GEO)
        for i in range(64):
            serve(engine, get(f"k{i}", size=100))
        engine.grow_budget(1 << 20)
        for i in range(64):
            serve(engine, get(f"k{i}", size=100))
        hits = sum(
            bool(serve(engine, get(f"k{i}", size=100)) & OUTCOME_HIT) for i in range(64)
        )
        assert hits == 64

    def test_delete(self, engine_cls):
        engine = engine_cls("a", 1 << 20, GEO)
        serve(engine, get("k"))
        code = serve(engine, Request(0.0, "a", "k", "delete", value_size=100))
        assert code & OUTCOME_HIT
        assert not serve(engine, get("k")) & OUTCOME_HIT

    def test_ops_counted(self, engine_cls):
        engine = engine_cls("a", 1 << 20, GEO)
        serve(engine, get("k"))
        serve(engine, get("k"))
        assert engine.ops.hash_lookups == 2
        assert engine.ops.inserts >= 1
        assert engine.ops.promotes >= 1

    def test_swapped_op_counter_keeps_counting(self, engine_cls):
        """``perfmodel.microbench`` replaces ``engine.ops`` after its
        warm-up: the engine must count into whatever is there now."""
        engine = engine_cls("a", 4 * 256, GEO)
        for i in range(8):
            serve(engine, get(f"k{i}"))
        warm_up = engine.ops
        seen = warm_up.total()
        engine.ops = OpCounter()
        for i in range(8):
            serve(engine, get(f"k{i}"))  # cache of 4: all misses + fills
        serve(engine, get("k7"))
        assert warm_up.total() == seen
        assert engine.ops.hash_lookups == 9
        assert engine.ops.inserts == 8
        assert engine.ops.evictions == 8
        assert engine.ops.promotes == 1


    def test_only_the_queue_factory_differs(self, engine_cls):
        """The request path, the start-up pool and the budget hooks are
        written once, on the shared skeleton."""
        own = {
            name
            for name, value in vars(engine_cls).items()
            if callable(value)
        }
        assert own == {"__init__", "_make_queue"}
        assert engine_cls.process_run is ClimbingEngine.process_run
        assert engine_cls.process_fast is Engine.process_fast

    def test_routes_are_charged_per_scheme(self, engine_cls):
        """Hill climbing has no partitions to route between; the combined
        engine routes once per request, whatever the op."""
        engine = engine_cls("a", 1 << 20, GEO)
        for op in (OP_SET, OP_GET, OP_GET, OP_DELETE):
            engine.process_fast("k", op, 2, GEO.chunk_size(2), 120)
        expected = 4 if engine_cls is CliffhangerEngine else 0
        assert engine.ops.routes == expected


@pytest.mark.parametrize(
    "scheme", ["hill", "hill-only", "cliff-only", "cliffhanger", "default"]
)
def test_delete_of_a_shadow_only_key_is_a_miss(scheme):
    """A shadow queue remembers keys, not values: DELETE of a key that
    only a shadow still holds must answer like stock FCFS (the
    ``default`` control) -- not found -- while still forgetting it."""
    chunk = GEO.chunk_size(2)
    engine = make_engine(scheme, "a", 8 * chunk)
    for i in range(40):
        engine.process_fast(f"k{i}", OP_SET, 2, chunk, 120)
    # k39 is resident, k20 was evicted (into a shadow segment, if any).
    assert engine.process_fast("k39", OP_DELETE, 2, chunk, 120) & OUTCOME_HIT
    assert not engine.process_fast("k20", OP_DELETE, 2, chunk, 120) & OUTCOME_HIT
    # The shadow entry is gone too: the next GET is a plain miss.
    code = engine.process_fast("k20", OP_GET, 2, chunk, 120)
    assert not code & (OUTCOME_HIT | OUTCOME_SHADOW_HIT)


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
            serve(engine, get(f"s{rng.randrange(600)}", size=100))
        phase1 = dict(engine.capacities())
        # Phase 2: large items burst (class 5, 2048B chunks).
        for i in range(15000):
            serve(engine, get(f"L{rng.randrange(200)}", size=1500))
        phase2 = dict(engine.capacities())
        assert phase2.get(5, 0.0) > phase1.get(5, 0.0)
        assert phase2.get(2, 1e18) < phase1.get(2, 0.0) + 1e-6

    def test_shadow_hit_reported_in_outcome(self):
        engine = HillClimbEngine("a", 4 * 256, GEO, shadow_bytes=1 << 16)
        for i in range(10):
            serve(engine, get(f"k{i}", size=100))
        code = serve(engine, get("k0", size=100))
        assert not code & OUTCOME_HIT
        assert code & OUTCOME_SHADOW_HIT

    def test_policy_parameter(self):
        engine = HillClimbEngine("a", 1 << 20, GEO, policy="facebook")
        serve(engine, get("k"))
        assert serve(engine, get("k")) & OUTCOME_HIT


class TestCliffhangerEngineFlags:
    def test_hill_only_never_splits(self, rng):
        engine = CliffhangerEngine(
            "a", 1 << 20, GEO, enable_cliff_scaling=False
        )
        for i in range(4000):
            serve(engine, get(f"k{rng.randrange(900)}", size=100))
        assert all(q._split is False for q in engine.queues.values())

    def test_cliff_only_does_not_transfer_memory(self, rng):
        engine = CliffhangerEngine(
            "a", 1 << 20, GEO, enable_hill_climbing=False
        )
        for i in range(2000):
            serve(engine, get(f"k{rng.randrange(300)}", size=100))
            serve(engine, get(f"L{rng.randrange(300)}", size=3000))
        assert engine.climber.transfers == 0

    def test_scaled_constants_accepted(self):
        engine = CliffhangerEngine(
            "a", 1 << 20, GEO, probe_items=16, min_cliff_items=120
        )
        serve(engine, get("k"))
        queue = engine.queues[2]
        assert queue.config.probe_items == 16
        assert queue.config.min_queue_items_for_cliff == 120
