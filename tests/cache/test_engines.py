"""Tests for the baseline engines and the multi-tenant server."""

import pytest

from repro.cache.engines import FirstComeFirstServeEngine, PlannedEngine
from repro.cache.log_structured import GlobalLRUEngine
from repro.cache.server import CacheServer
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import EVICTED_SHIFT, OP_SET, OUTCOME_HIT
from repro.common.errors import CacheError, ConfigurationError
from repro.sim import make_engine
from repro.workloads.compiled import CompiledTrace
from repro.workloads.trace import Request
from tests.conftest import serve

GEO = SlabGeometry.default()


def get(key, size=100, app="a", t=0.0):
    return Request(time=t, app=app, key=key, op="get", value_size=size)


def put(key, size=100, app="a", t=0.0):
    return Request(time=t, app=app, key=key, op="set", value_size=size)


class TestFCFSEngine:
    def test_fill_on_miss_then_hit(self):
        engine = FirstComeFirstServeEngine("a", 1 << 20, GEO)
        assert not serve(engine, get("k")) & OUTCOME_HIT
        assert serve(engine, get("k")) & OUTCOME_HIT

    def test_greedy_growth_until_budget(self):
        engine = FirstComeFirstServeEngine("a", 10 * 256, GEO)
        for i in range(50):
            serve(engine, get(f"k{i}", size=100))  # class 2, 256B chunks
        total = sum(engine.capacities().values())
        assert total <= 10 * 256

    def test_per_class_eviction_after_full(self):
        engine = FirstComeFirstServeEngine("a", 8 * 256, GEO)
        for i in range(20):
            serve(engine, get(f"k{i}", size=100))
        # Still serves the most recent keys.
        assert serve(engine, get("k19")) & OUTCOME_HIT
        assert not serve(engine, get("k0")) & OUTCOME_HIT

    def test_steal_for_starved_class(self):
        engine = FirstComeFirstServeEngine("a", 4096, GEO)
        for i in range(30):
            serve(engine, get(f"small{i}", size=100))
        # A brand-new class arrives with memory exhausted.
        code = serve(engine, get("big0", size=3000))
        assert not code & OUTCOME_HIT
        assert serve(engine, get("big0", size=3000)) & OUTCOME_HIT

    def test_delete(self):
        engine = FirstComeFirstServeEngine("a", 1 << 20, GEO)
        serve(engine, put("k"))
        code = serve(engine, Request(0.0, "a", "k", "delete", value_size=100))
        assert code & OUTCOME_HIT
        assert not serve(engine, get("k")) & OUTCOME_HIT

    def test_class_migration_on_resize(self):
        engine = FirstComeFirstServeEngine("a", 1 << 20, GEO)
        serve(engine, put("k", size=100))
        serve(engine, put("k", size=5000))  # moves to a bigger class
        assert serve(engine, get("k", size=5000)) & OUTCOME_HIT
        # Only one copy exists.
        assert sum(len(q) for q in engine.queues.values()) == 1

    def test_shrink_budget_evicts(self):
        engine = FirstComeFirstServeEngine("a", 1 << 20, GEO)
        for i in range(100):
            serve(engine, get(f"k{i}", size=1000))
        before = engine.used_bytes()
        engine.shrink_budget(before / 2)
        assert engine.used_bytes() <= engine.budget_bytes + 1e-6

    def test_no_donor_bypasses_store(self):
        """Regression: budget exhausted, new class, and no donor owns a
        whole chunk -- the item must be bypassed, not inserted into a
        queue that can never fit it (which left a ghost residency entry
        and counted a phantom self-eviction)."""
        engine = FirstComeFirstServeEngine("a", 2 * 256, GEO)
        serve(engine, get("s0", size=100))
        serve(engine, get("s1", size=100))
        used_before = engine.used_bytes()
        code = serve(engine, put("big", size=3000))
        assert code >> EVICTED_SHIFT == 0
        assert "big" not in engine._class_of_key
        assert engine.used_bytes() == used_before
        # The bypassed key is not resident: a later GET misses and a
        # DELETE reports a miss instead of a ghost hit.
        assert not serve(engine, get("big", size=3000)) & OUTCOME_HIT
        code = serve(engine, Request(0.0, "a", "big", "delete", value_size=3000))
        assert not code & OUTCOME_HIT
        # The donor class that could not donate is untouched.
        assert serve(engine, get("s0")) & OUTCOME_HIT

    def test_zero_capacity_class_never_holds_items(self):
        """Repeated over-capacity stores must not inflate eviction or
        insert counts."""
        engine = FirstComeFirstServeEngine("a", 2 * 256, GEO)
        serve(engine, get("s0", size=100))
        serve(engine, get("s1", size=100))
        inserts_before = engine.ops.inserts
        evictions_before = engine.ops.evictions
        for _ in range(5):
            serve(engine, put("big", size=3000))
        assert engine.ops.inserts == inserts_before
        assert engine.ops.evictions == evictions_before
        big_class = GEO.class_for_size(3000)
        assert len(engine.queues[big_class]) == 0


class TestBudgetEnforcement:
    """grow_budget/shrink_budget round trips for both engines."""

    def test_fcfs_shrink_resyncs_capacity_total(self):
        engine = FirstComeFirstServeEngine("a", 64 * 256, GEO)
        for i in range(64):
            serve(engine, get(f"k{i}", size=100))
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
            serve(engine, get(f"k{i}", size=100))
        engine.grow_budget(16 * 256)
        for i in range(16, 32):
            serve(engine, get(f"k{i}", size=100))
        assert engine.used_bytes() == 32 * 256
        evicted = engine.shrink_budget(16 * 256)
        assert engine.budget_bytes == 16 * 256
        assert evicted == 16
        assert engine.used_bytes() <= engine.budget_bytes
        # The engine keeps serving and refilling after the shrink.
        assert serve(engine, get("k31")) & OUTCOME_HIT
        serve(engine, get("fresh", size=100))
        assert serve(engine, get("fresh", size=100)) & OUTCOME_HIT

    def test_fcfs_shrink_prefers_largest_class(self):
        engine = FirstComeFirstServeEngine("a", 4 * 256 + 4 * 1024, GEO)
        for i in range(4):
            serve(engine, get(f"small{i}", size=100))
        for i in range(4):
            serve(engine, get(f"large{i}", size=900))
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
            serve(engine, get(f"k{i}", size=100))
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
            serve(engine, get(f"small{i}", size=100))
        for i in range(8):
            serve(engine, get(f"large{i}", size=900))
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
            serve(engine, get(f"k{i}", size=100))
        evicted = engine.shrink_budget(1 << 19)  # still >= plan total
        assert evicted == 0
        assert engine.capacities()[2] == 4 * 256.0
        assert serve(engine, get("k3")) & OUTCOME_HIT

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
            serve(engine, get(f"k{i}", size=100))
        assert engine.capacities()[2] == 10 * 256

    def test_zero_capacity_class_is_bypass(self):
        engine = PlannedEngine("a", 1 << 20, GEO, {2: 0.0})
        serve(engine, get("k", size=100))
        assert not serve(engine, get("k", size=100)) & OUTCOME_HIT

    def test_overcommitted_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            PlannedEngine("a", 100, GEO, {2: 1000.0})

    def test_unplanned_class_bypasses(self):
        engine = PlannedEngine("a", 1 << 20, GEO, {2: 2560.0})
        serve(engine, get("big", size=5000))
        assert not serve(engine, get("big", size=5000)) & OUTCOME_HIT

    def test_starved_class_leaves_no_residue(self):
        """Regression: bypassed stores must not register residency --
        the ghost entry made DELETE report a hit and leaked one
        _class_of_key entry per unique starved key."""
        engine = PlannedEngine("a", 1 << 20, GEO, {2: 0.0})
        for i in range(10):
            serve(engine, get(f"k{i}", size=100))
        assert engine._class_of_key == {}
        assert engine.ops.inserts == 0
        code = serve(engine, Request(0.0, "a", "k0", "delete", value_size=100))
        assert not code & OUTCOME_HIT


@pytest.mark.parametrize(
    "make",
    [
        lambda: FirstComeFirstServeEngine("a", 2 * 256, GEO, policy="arc"),
        lambda: PlannedEngine("a", 2 * 256, GEO, {2: 2 * 256.0}, policy="arc"),
    ],
    ids=["fcfs", "planned"],
)
def test_key_the_policy_evicts_on_store_is_not_resident(make):
    """Regression: ARC demotes after it pushes, so with k1 and k2 in T2 a
    new k3 alone in T1 is the victim of its own store. The engine used to
    record k3 anyway, and DELETE k3 reported a hit."""
    engine = make()
    for request in (put("k1"), get("k1"), put("k2"), get("k2")):
        serve(engine, request)
    code = serve(engine, put("k3"))
    assert code >> EVICTED_SHIFT == 1
    assert "k3" not in engine.queues[2]
    assert "k3" not in engine._class_of_key
    code = serve(engine, Request(0.0, "a", "k3", "delete", value_size=100))
    assert not code & OUTCOME_HIT


class TestGlobalLRUEngine:
    def test_no_chunk_rounding(self):
        engine = GlobalLRUEngine("a", 1000, GEO)
        serve(engine, get("k", size=500))
        # key+value bytes, not a chunk: 1 item of ~501..505B
        assert engine.used_bytes() < 600

    def test_byte_weighted_eviction(self):
        engine = GlobalLRUEngine("a", 1000, GEO)
        serve(engine, get("a", size=400))
        serve(engine, get("b", size=400))
        serve(engine, get("c", size=400))  # evicts "a"
        assert not serve(engine, get("a", size=400)) & OUTCOME_HIT
        assert serve(engine, get("c", size=400)) & OUTCOME_HIT

    def test_large_items_displace_small(self):
        """The Table 2 caveat: global LRU still lets large items push
        out many small ones."""
        engine = GlobalLRUEngine("a", 2000, GEO)
        for i in range(10):
            serve(engine, get(f"s{i}", size=100))
        serve(engine, get("huge", size=1800))
        survivors = sum(
            bool(serve(engine, get(f"s{i}", size=100)) & OUTCOME_HIT) for i in range(10)
        )
        assert survivors == 0


def compiled(*requests, geometry=GEO):
    return CompiledTrace.compile(requests, geometry)


class TestCacheServer:
    def test_routes_by_app(self):
        server = CacheServer(GEO)
        server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))
        server.add_app(FirstComeFirstServeEngine("b", 1 << 20, GEO))
        server.replay_compiled(
            compiled(get("k", app="a"), get("k", app="a"), get("k", app="b"))
        )
        assert server.stats.by_app["a"].get_hits == 1
        assert server.stats.by_app["a"].get_misses == 1
        assert server.stats.by_app["b"].get_hits == 0
        assert server.stats.by_app["b"].get_misses == 1

    def test_duplicate_app_rejected(self):
        server = CacheServer(GEO)
        server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))
        with pytest.raises(ConfigurationError):
            server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))

    def test_unknown_app_rejected(self):
        server = CacheServer(GEO)
        with pytest.raises(ConfigurationError, match="unknown app 'ghost'"):
            server.check_replayable(compiled(get("k", app="ghost")))

    def test_unknown_app_named_is_the_lowest_present_id(self):
        """Only apps with a row count, and the error names the one with
        the lowest id in the trace's app table."""
        server = CacheServer(GEO)
        server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))
        trace = compiled(
            get("k", app="ghost2"), get("k", app="a"), get("k", app="ghost1")
        )
        assert trace.app_table == ["ghost2", "a", "ghost1"]
        with pytest.raises(ConfigurationError, match="unknown app 'ghost2'"):
            server.check_replayable(trace)
        with pytest.raises(ConfigurationError, match="unknown app 'ghost1'"):
            server.check_replayable(trace.slice(1))
        server.check_replayable(trace.slice(1, 2))

    def test_memory_accounting(self):
        server = CacheServer(GEO)
        server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))
        server.replay_compiled(compiled(get("k")))
        assert 0 < server.memory_in_use() <= server.memory_reserved()

    def test_geometry_mismatch_raises_before_replaying(self):
        """A trace compiled for a different slab ladder is refused."""
        server = CacheServer(GEO)
        server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))
        trace = compiled(get("k"), geometry=SlabGeometry((64, 4096)))
        with pytest.raises(ConfigurationError, match="slab geometry"):
            server.replay_compiled(trace)
        assert server.stats.total.gets == 0

    def test_engine_on_another_ladder_is_refused_naming_its_app(self):
        """A row carries its slab class, not its chunk: an engine built
        for another ladder would charge a replayed item the wrong chunk,
        so neither door lets one in."""
        other = SlabGeometry((64, 4096))
        server = CacheServer(GEO)
        with pytest.raises(ConfigurationError, match="app 'a'.*geometry"):
            server.add_app(FirstComeFirstServeEngine("a", 1 << 20, other))
        assert server.engines == {}
        kept = FirstComeFirstServeEngine("a", 1 << 20, GEO)
        server.add_app(kept)
        with pytest.raises(ConfigurationError, match="app 'a'.*geometry"):
            server.replace_app(GlobalLRUEngine("a", 1 << 20, other))
        assert server.engines["a"] is kept

    def test_unknown_app_in_compiled_trace_raises_before_replaying(self):
        """Regression: a trace naming an unregistered app used to replay
        its prefix and only then raise, leaving engines and stats
        half-mutated. The check now runs before the first request."""
        trace = compiled(get("k1"), put("k2"), get("k3", app="ghost"), get("k4"))
        server = CacheServer(GEO)
        server.add_app(FirstComeFirstServeEngine("a", 1 << 20, GEO))
        with pytest.raises(ConfigurationError, match="unknown app 'ghost'"):
            server.replay_compiled(trace)
        assert server.stats.total.gets + server.stats.total.sets == 0
        assert server.memory_in_use() == 0


@pytest.mark.parametrize(
    "scheme", ["default", "planned", "lsm", "hill", "cliffhanger"]
)
def test_process_fast_refuses_a_chunk_its_ladder_does_not_give_the_class(
    scheme,
):
    """``process_fast`` keeps its chunk argument, but a row no longer
    carries one: a chunk that is not the engine's own for the class is
    refused before anything is served."""
    plan = {2: float(1 << 19)} if scheme == "planned" else None
    engine = make_engine(scheme, "a", 1 << 20, plan=plan, geometry=GEO)
    class_index, chunk, item_bytes = GEO.row(2, 100)
    with pytest.raises(CacheError, match="slab class 2"):
        engine.process_fast("k", OP_SET, class_index, 2 * chunk, item_bytes)
    assert engine.used_bytes() == 0
    engine.process_fast("k", OP_SET, class_index, chunk, item_bytes)
    assert engine.used_bytes() > 0
