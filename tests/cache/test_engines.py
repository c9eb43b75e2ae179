"""Tests for the baseline engines and the multi-tenant server."""

import pytest

from repro.cache.engines import FirstComeFirstServeEngine, PlannedEngine
from repro.cache.log_structured import GlobalLRUEngine
from repro.cache.server import CacheServer
from repro.cache.slabs import SlabGeometry
from repro.common.errors import ConfigurationError
from repro.workloads.trace import Request

GEO = SlabGeometry.default()


def get(key, size=100, app="a", t=0.0):
    return Request(time=t, app=app, key=key, op="get", value_size=size)


def put(key, size=100, app="a", t=0.0):
    return Request(time=t, app=app, key=key, op="set", value_size=size)


class TestFCFSEngine:
    def test_fill_on_miss_then_hit(self):
        engine = FirstComeFirstServeEngine("a", 1 << 20, GEO)
        assert engine.process(get("k")).hit is False
        assert engine.process(get("k")).hit is True

    def test_greedy_growth_until_budget(self):
        engine = FirstComeFirstServeEngine("a", 10 * 256, GEO)
        for i in range(50):
            engine.process(get(f"k{i}", size=100))  # class 2, 256B chunks
        total = sum(engine.capacities().values())
        assert total <= 10 * 256

    def test_per_class_eviction_after_full(self):
        engine = FirstComeFirstServeEngine("a", 8 * 256, GEO)
        for i in range(20):
            engine.process(get(f"k{i}", size=100))
        # Still serves the most recent keys.
        assert engine.process(get("k19")).hit is True
        assert engine.process(get("k0")).hit is False

    def test_steal_for_starved_class(self):
        engine = FirstComeFirstServeEngine("a", 4096, GEO)
        for i in range(30):
            engine.process(get(f"small{i}", size=100))
        # A brand-new class arrives with memory exhausted.
        outcome = engine.process(get("big0", size=3000))
        assert outcome.hit is False
        assert engine.process(get("big0", size=3000)).hit is True

    def test_delete(self):
        engine = FirstComeFirstServeEngine("a", 1 << 20, GEO)
        engine.process(put("k"))
        removed = engine.process(
            Request(0.0, "a", "k", "delete", value_size=100)
        )
        assert removed.hit is True
        assert engine.process(get("k")).hit is False

    def test_class_migration_on_resize(self):
        engine = FirstComeFirstServeEngine("a", 1 << 20, GEO)
        engine.process(put("k", size=100))
        engine.process(put("k", size=5000))  # moves to a bigger class
        assert engine.process(get("k", size=5000)).hit is True
        # Only one copy exists.
        assert sum(len(q) for q in engine.queues.values()) == 1

    def test_shrink_budget_evicts(self):
        engine = FirstComeFirstServeEngine("a", 1 << 20, GEO)
        for i in range(100):
            engine.process(get(f"k{i}", size=1000))
        before = engine.used_bytes()
        engine.shrink_budget(before / 2)
        assert engine.used_bytes() <= engine.budget_bytes + 1e-6

    def test_no_donor_bypasses_store(self):
        """Regression: budget exhausted, new class, and no donor owns a
        whole chunk -- the item must be bypassed, not inserted into a
        queue that can never fit it (which left a ghost residency entry
        and counted a phantom self-eviction)."""
        engine = FirstComeFirstServeEngine("a", 2 * 256, GEO)
        engine.process(get("s0", size=100))
        engine.process(get("s1", size=100))
        used_before = engine.used_bytes()
        outcome = engine.process(put("big", size=3000))
        assert outcome.evicted == 0
        assert "big" not in engine._class_of_key
        assert engine.used_bytes() == used_before
        # The bypassed key is not resident: a later GET misses and a
        # DELETE reports a miss instead of a ghost hit.
        assert engine.process(get("big", size=3000)).hit is False
        removed = engine.process(
            Request(0.0, "a", "big", "delete", value_size=3000)
        )
        assert removed.hit is False
        # The donor class that could not donate is untouched.
        assert engine.process(get("s0")).hit is True

    def test_zero_capacity_class_never_holds_items(self):
        """Repeated over-capacity stores must not inflate eviction or
        insert counts."""
        engine = FirstComeFirstServeEngine("a", 2 * 256, GEO)
        engine.process(get("s0", size=100))
        engine.process(get("s1", size=100))
        inserts_before = engine.ops.inserts
        evictions_before = engine.ops.evictions
        for _ in range(5):
            engine.process(put("big", size=3000))
        assert engine.ops.inserts == inserts_before
        assert engine.ops.evictions == evictions_before
        big_class = GEO.class_for_size(3000)
        assert len(engine.queues[big_class]) == 0


class TestBudgetEnforcement:
    """grow_budget/shrink_budget round trips for both engines."""

    def test_fcfs_shrink_resyncs_capacity_total(self):
        engine = FirstComeFirstServeEngine("a", 64 * 256, GEO)
        for i in range(64):
            engine.process(get(f"k{i}", size=100))
        # Inject float drift: _enforce_budget must re-sync from the queues.
        engine._capacity_total += 1e-7
        evicted = engine.shrink_budget(32 * 256)
        assert engine._capacity_total == sum(
            q.capacity for q in engine.queues.values()
        )
        assert engine._capacity_total <= engine.budget_bytes
        assert evicted == 32  # one item per 256B chunk reclaimed

    def test_fcfs_grow_shrink_round_trip(self):
        engine = FirstComeFirstServeEngine("a", 16 * 256, GEO)
        for i in range(16):
            engine.process(get(f"k{i}", size=100))
        engine.grow_budget(16 * 256)
        for i in range(16, 32):
            engine.process(get(f"k{i}", size=100))
        assert engine.used_bytes() == 32 * 256
        evicted = engine.shrink_budget(16 * 256)
        assert engine.budget_bytes == 16 * 256
        assert evicted == 16
        assert engine.used_bytes() <= engine.budget_bytes
        # The engine keeps serving and refilling after the shrink.
        assert engine.process(get("k31")).hit is True
        engine.process(get("fresh", size=100))
        assert engine.process(get("fresh", size=100)).hit is True

    def test_fcfs_shrink_prefers_largest_class(self):
        engine = FirstComeFirstServeEngine("a", 4 * 256 + 4 * 1024, GEO)
        for i in range(4):
            engine.process(get(f"small{i}", size=100))
        for i in range(4):
            engine.process(get(f"large{i}", size=900))
        engine.shrink_budget(2 * 1024)
        caps = engine.capacities()
        small_class = GEO.class_for_size(200)
        large_class = GEO.class_for_size(1000)
        # The 1024B class is always the max-capacity donor here.
        assert caps[large_class] == 2 * 1024
        assert caps[small_class] == 4 * 256

    def test_fcfs_shrink_to_zero_evicts_everything(self):
        engine = FirstComeFirstServeEngine("a", 8 * 256, GEO)
        for i in range(8):
            engine.process(get(f"k{i}", size=100))
        evicted = engine.shrink_budget(8 * 256)
        assert evicted == 8
        assert engine.budget_bytes == 0.0
        assert engine.used_bytes() == 0.0
        assert engine._capacity_total == 0.0

    def test_planned_shrink_scales_proportionally(self):
        plan = {2: 8 * 256.0, 4: 8 * 1024.0}
        budget = sum(plan.values())
        engine = PlannedEngine("a", budget, GEO, plan)
        for i in range(8):
            engine.process(get(f"small{i}", size=100))
        for i in range(8):
            engine.process(get(f"large{i}", size=900))
        evicted = engine.shrink_budget(budget / 2)
        caps = engine.capacities()
        assert caps[2] == pytest.approx(4 * 256.0)
        assert caps[4] == pytest.approx(4 * 1024.0)
        assert evicted > 0
        assert engine.used_bytes() <= engine.budget_bytes + 1e-6
        assert engine._capacity_total == pytest.approx(
            sum(q.capacity for q in engine.queues.values())
        )

    def test_planned_shrink_within_budget_is_noop(self):
        plan = {2: 4 * 256.0}
        engine = PlannedEngine("a", 1 << 20, GEO, plan)
        for i in range(4):
            engine.process(get(f"k{i}", size=100))
        evicted = engine.shrink_budget(1 << 19)  # still >= plan total
        assert evicted == 0
        assert engine.capacities()[2] == 4 * 256.0
        assert engine.process(get("k3")).hit is True

    def test_grow_and_shrink_reject_negative_deltas(self):
        engine = FirstComeFirstServeEngine("a", 1 << 20, GEO)
        with pytest.raises(ConfigurationError):
            engine.grow_budget(-1.0)
        with pytest.raises(ConfigurationError):
            engine.shrink_budget(-1.0)


class TestPlannedEngine:
    def test_plan_respected(self):
        plan = {2: 10 * 256}
        engine = PlannedEngine("a", 1 << 20, GEO, plan)
        for i in range(20):
            engine.process(get(f"k{i}", size=100))
        assert engine.capacities()[2] == 10 * 256

    def test_zero_capacity_class_is_bypass(self):
        engine = PlannedEngine("a", 1 << 20, GEO, {2: 0.0})
        engine.process(get("k", size=100))
        assert engine.process(get("k", size=100)).hit is False

    def test_overcommitted_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            PlannedEngine("a", 100, GEO, {2: 1000.0})

    def test_unplanned_class_bypasses(self):
        engine = PlannedEngine("a", 1 << 20, GEO, {2: 2560.0})
        engine.process(get("big", size=5000))
        assert engine.process(get("big", size=5000)).hit is False

    def test_starved_class_leaves_no_residue(self):
        """Regression: bypassed stores must not register residency --
        the ghost entry made DELETE report a hit and leaked one
        _class_of_key entry per unique starved key."""
        engine = PlannedEngine("a", 1 << 20, GEO, {2: 0.0})
        for i in range(10):
            engine.process(get(f"k{i}", size=100))
        assert engine._class_of_key == {}
        assert engine.ops.inserts == 0
        removed = engine.process(
            Request(0.0, "a", "k0", "delete", value_size=100)
        )
        assert removed.hit is False


class TestGlobalLRUEngine:
    def test_no_chunk_rounding(self):
        engine = GlobalLRUEngine("a", 1000, GEO)
        engine.process(get("k", size=500))
        # key+value bytes, not a chunk: 1 item of ~501..505B
        assert engine.used_bytes() < 600

    def test_byte_weighted_eviction(self):
        engine = GlobalLRUEngine("a", 1000, GEO)
        engine.process(get("a", size=400))
        engine.process(get("b", size=400))
        engine.process(get("c", size=400))  # evicts "a"
        assert engine.process(get("a", size=400)).hit is False
        assert engine.process(get("c", size=400)).hit is True

    def test_large_items_displace_small(self):
        """The Table 2 caveat: global LRU still lets large items push
        out many small ones."""
        engine = GlobalLRUEngine("a", 2000, GEO)
        for i in range(10):
            engine.process(get(f"s{i}", size=100))
        engine.process(get("huge", size=1800))
        survivors = sum(
            engine.process(get(f"s{i}", size=100)).hit for i in range(10)
        )
        assert survivors == 0


class TestCacheServer:
    def test_routes_by_app(self):
        server = CacheServer(GEO)
        server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))
        server.add_app(FirstComeFirstServeEngine("b", 1 << 20, GEO))
        server.process(get("k", app="a"))
        assert server.process(get("k", app="a")).hit is True
        assert server.process(get("k", app="b")).hit is False

    def test_duplicate_app_rejected(self):
        server = CacheServer(GEO)
        server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))
        with pytest.raises(ConfigurationError):
            server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))

    def test_unknown_app_rejected(self):
        server = CacheServer(GEO)
        with pytest.raises(ConfigurationError):
            server.process(get("k", app="ghost"))

    def test_observer_sees_every_request(self):
        server = CacheServer(GEO)
        server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))
        seen = []
        server.add_observer(lambda req, out: seen.append((req.key, out.hit)))
        server.replay([get("x"), get("x")])
        assert seen == [("x", False), ("x", True)]

    def test_memory_accounting(self):
        server = CacheServer(GEO)
        server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))
        server.process(get("k"))
        assert 0 < server.memory_in_use() <= server.memory_reserved()

    def test_geometry_mismatch_raises_even_with_observers(self):
        """Regression: the observer branch once returned before the
        slab-geometry check, silently accepting a trace compiled for a
        different ladder whenever observers were attached."""
        from repro.workloads.compiled import CompiledTrace

        other_geo = SlabGeometry((64, 4096))
        compiled = CompiledTrace.compile([get("k")], other_geo)
        server = CacheServer(GEO)
        server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))
        server.add_observer(lambda req, out: None)
        with pytest.raises(ConfigurationError, match="slab geometry"):
            server.replay_compiled(compiled)

    def test_replay_compiled_refuses_observers_before_any_engine(self):
        """The compiled path builds no Request/AccessOutcome objects, so
        an attached observer is an error naming the object-API replay --
        raised before the first request reaches an engine."""
        from repro.workloads.compiled import CompiledTrace

        compiled = CompiledTrace.compile([get("k"), get("k")], GEO)
        server = CacheServer(GEO)
        server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))
        seen = []
        server.add_observer(lambda req, out: seen.append(out.hit))
        with pytest.raises(ConfigurationError, match=r"replay\(trace.iter_"):
            server.replay_compiled(compiled)
        assert seen == []
        assert server.stats.total.gets == 0
        assert server.memory_in_use() == 0
        server.replay(compiled.iter_requests())
        assert seen == [False, True]

    @pytest.mark.parametrize("observed", [False, True])
    def test_unknown_app_in_compiled_trace_raises_before_replaying(
        self, observed
    ):
        """Regression: a trace naming an unregistered app used to replay
        its prefix and only then raise, leaving engines and stats
        half-mutated. The check now runs before the first request."""
        from repro.workloads.compiled import CompiledTrace

        compiled = CompiledTrace.compile(
            [get("k1"), put("k2"), get("k3", app="ghost"), get("k4")], GEO
        )
        server = CacheServer(GEO)
        server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))
        if observed:
            server.add_observer(lambda req, out: None)
        with pytest.raises(ConfigurationError, match="unknown app 'ghost'"):
            server.replay_compiled(compiled)
        assert server.stats.total.gets + server.stats.total.sets == 0
        assert server.memory_in_use() == 0
