"""Routing plans: vectorized hashing, partitioning, caching, and the
replay-vs-reference bit-identity property.

The cluster replay stands on three exact equivalences:

* the bulk splitmix64 pass equals :func:`stable_hash_u64` per key;
* the plan's ``shard_ids`` equal lazy per-key ring lookups and
  round-robin replica counters;
* replaying per-(shard, app) runs equals the interleaved per-request
  loop, down to per-shard per-(app, class) counters -- pinned by a
  Hypothesis property over random shard counts, replication factors,
  hash seeds, and traces with deletes, against
  :func:`tests.cluster.reference.replay_reference`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cache.engines import FirstComeFirstServeEngine
from repro.cache.slabs import SlabGeometry
from repro.cluster import (
    Cluster,
    ClusterConfig,
    RebalanceConfig,
    Rebalancer,
    RoutingPlan,
    build_routing_plan,
    get_routing_plan,
)
from repro.cluster.hashring import HashRing
from repro.cluster.routing import (
    Router,
    TraceColumns,
    effective_replication,
    hash_keys_u64,
    occurrence_index,
    plan_cache_key,
)
from repro.common.errors import ConfigurationError, TraceFormatError
from repro.common.hashing import stable_hash_u64
from repro.workloads.compiled import CompiledTrace, TraceCache
from repro.workloads.trace import Request
from tests.cluster.reference import (
    replay_reference,
    shard_for,
    shards_for,
    shards_for_live,
)

GEO = SlabGeometry.default()


def compile_trace(rows):
    """rows: (app, key, op, value_size) tuples."""
    return CompiledTrace.compile(
        [
            Request(
                time=float(i), app=app, key=key, op=op, value_size=size
            )
            for i, (app, key, op, size) in enumerate(rows)
        ],
        GEO,
    )


# ---------------------------------------------------------------------------
# Vectorized hashing and turn sequences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("salt", [0, 7, 2**63 - 1])
def test_bulk_hash_matches_scalar_hash(salt):
    keys = (
        [f"app3:key{i:06d}" for i in range(500)]
        + ["a", "a" * 100, "héllo", "κλειδί", "日本語キー"]
    )
    assert hash_keys_u64(keys, salt=salt).tolist() == [
        stable_hash_u64(key, salt=salt) for key in keys
    ]


def test_bulk_hash_empty_column():
    assert len(hash_keys_u64([], salt=3)) == 0


def test_occurrence_index_is_the_lazy_turn_counter():
    key_ids = np.array([0, 1, 0, 0, 2, 1, 0], dtype=np.int64)
    assert occurrence_index(key_ids).tolist() == [0, 0, 1, 2, 0, 1, 3]
    assert len(occurrence_index(np.zeros(0, dtype=np.int64))) == 0


# ---------------------------------------------------------------------------
# Plan vs. the lazy per-request routing oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "shards,replication,seed,vnodes",
    [(1, 1, 0, 64), (4, 1, 0, 64), (4, 2, 3, 8), (5, 3, 1, 4), (3, 3, 9, 16)],
)
def test_plan_matches_lazy_routing(shards, replication, seed, vnodes):
    trace = compile_trace(
        [
            ("a", f"k{i % 37:03d}", "get", 100 + 8 * (i % 11))
            for i in range(600)
        ]
    )
    ring = HashRing(shards, seed=seed, virtual_nodes=vnodes)
    plan = build_routing_plan(trace, ring, replication)
    effective = min(replication, shards)
    replicas_of, turn_of, expected = {}, {}, []
    for key_id, key in zip(trace.key_ids, trace.keys):
        if effective > 1:
            choices = replicas_of.get(key_id)
            if choices is None:
                choices = replicas_of[key_id] = shards_for(
                    ring, key, effective
                )
            turn = turn_of.get(key_id, 0)
            turn_of[key_id] = turn + 1
            expected.append(choices[turn % len(choices)])
        else:
            expected.append(shard_for(ring, key))
    assert plan.shard_ids.tolist() == expected
    assert plan.shards == shards
    assert plan.replication == effective


@settings(max_examples=60, deadline=None)
@given(
    key_indices=st.lists(
        st.integers(min_value=0, max_value=30), min_size=1, max_size=120
    ),
    shards=st.integers(min_value=1, max_value=5),
    replication=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32),
    down=st.sets(st.integers(min_value=0, max_value=4)),
)
def test_every_route_agrees_with_the_ring_walk(
    key_indices, shards, replication, seed, down
):
    """The plan, the failover column and the live per-request route are
    three callers of one router: each must equal the
    per-request ring walk (``shards_for_live``) with lazy per-key turn
    counters, under any live mask and clamped replication."""
    mask = tuple(shard not in down for shard in range(shards))
    assume(any(mask))
    keys = [f"k{i:02d}" for i in key_indices]
    ring = HashRing(shards, seed=seed, virtual_nodes=4)

    def walk(live):
        turns = {}
        routed = []
        for key in keys:
            replicas = shards_for_live(ring, key, replication, live)
            turn = turns.get(key, 0)
            turns[key] = turn + 1
            routed.append(replicas[turn % len(replicas)])
        return routed

    all_live = (True,) * shards
    trace = CompiledTrace.compile(
        [
            Request(
                time=float(i), app="a", key=key, op="get", value_size=10,
                key_size=8,
            )
            for i, key in enumerate(keys)
        ],
        GEO,
    )
    plan = build_routing_plan(trace, ring, replication)
    assert plan.shard_ids.tolist() == walk(all_live)
    columns = TraceColumns(Router(ring, replication), trace, plan)
    assert columns.shard_ids(all_live) is plan.shard_ids
    assert columns.shard_ids(mask).tolist() == walk(mask)
    scalar = Router(ring, replication)
    assert [scalar.route(key, mask) for key in keys] == walk(mask)


@pytest.mark.parametrize("cap", [5, None])
@pytest.mark.parametrize("replication", [1, 2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_routing_a_batch_is_routing_each_key_in_turn(
    monkeypatch, seed, replication, cap
):
    """``Router.route_keys`` over a window equals ``Router.route`` once
    per key, in order: the same shards, and the same ``spread`` and
    position memo afterwards. Keys repeat, the live mask loses a shard
    and gets it back between windows (``failover`` turns go on across
    the change), and at ``cap`` 5 the memo is dropped mid-window."""
    import random

    from repro.cluster import routing

    if cap is not None:
        monkeypatch.setattr(routing, "POSITION_MEMO_CAP", cap)
    rng = random.Random(seed)
    shards = 4
    ring = HashRing(shards, seed=seed, virtual_nodes=4)
    batched, scalar = Router(ring, replication), Router(ring, replication)
    down = rng.randrange(shards)
    masks = [
        (True,) * shards,
        tuple(shard != down for shard in range(shards)),
        (True,) * shards,
    ]
    turns = {}
    for window in range(6):
        mask = masks[window % 3]
        keys = [f"k{rng.randrange(12)}" for _ in range(rng.randrange(1, 20))]
        routed = batched.route_keys(keys, mask)
        assert routed == [scalar.route(key, mask) for key in keys]
        for key, shard in zip(keys, routed):  # the ring walk agrees
            replicas = shards_for_live(ring, key, replication, mask)
            turn = turns.get(key, 0) if replication > 1 else 0
            turns[key] = turn + 1
            assert shard == replicas[turn % len(replicas)]
        assert batched.spread == scalar.spread
        assert list(batched._position_memo.items()) == list(
            scalar._position_memo.items()
        )
        if cap is not None:
            assert len(batched._position_memo) <= cap
    if replication == 1:
        assert batched.spread == {}


def test_successor_table_matches_shards_for():
    ring = HashRing(5, seed=2, virtual_nodes=8)
    tokens, _ = ring.token_table()
    table = ring.successor_table(3)
    for key in (f"k{i}" for i in range(200)):
        token = stable_hash_u64(key, salt=ring.seed)
        position = np.searchsorted(
            np.asarray(tokens, dtype=np.uint64), token, side="right"
        ) % len(tokens)
        assert table[position] == shards_for(ring, key, 3)


def test_stale_cached_plan_is_rebuilt_and_repaired(tmp_path):
    trace = compile_trace([("a", f"k{i}", "get", 64) for i in range(60)])
    ring = HashRing(4, seed=0)
    cache = TraceCache(directory=tmp_path)
    key = plan_cache_key(trace, ring, 2)
    # Poison the cache with a plan of the wrong shape under this key.
    bogus = build_routing_plan(trace.slice(0, 5), HashRing(2, seed=9), 1)
    cache.store_plan(key, bogus)
    healed = get_routing_plan(trace, ring, 2, cache=cache)
    expected = build_routing_plan(trace, ring, 2)
    assert healed.shard_ids.tolist() == expected.shard_ids.tolist()
    # The poisoned entry was overwritten in both levels: a fresh fetch
    # (memory) and a fresh cache instance (disk) both serve the repair.
    assert cache.get_or_build_plan(key, lambda: None) is healed
    reloaded = TraceCache(directory=tmp_path).get_or_build_plan(
        key, lambda: None
    )
    assert reloaded.shard_ids.tolist() == expected.shard_ids.tolist()


# ---------------------------------------------------------------------------
# Caching: save/load round trip, two-level fetch, digest keys
# ---------------------------------------------------------------------------


def test_plan_round_trips_through_disk(tmp_path):
    trace = compile_trace([("a", f"k{i}", "get", 64) for i in range(50)])
    plan = build_routing_plan(trace, HashRing(3, seed=4), 2)
    path = plan.save(tmp_path / "plan.npz")
    clone = RoutingPlan.load(path)
    assert clone.shards == plan.shards
    assert clone.hash_seed == plan.hash_seed
    assert clone.virtual_nodes == plan.virtual_nodes
    assert clone.replication == plan.replication
    assert clone.shard_ids.tolist() == plan.shard_ids.tolist()


def test_trace_cache_builds_once_and_reloads(tmp_path):
    trace = compile_trace([("a", f"k{i}", "get", 64) for i in range(80)])
    ring = HashRing(4, seed=0)
    cache = TraceCache(directory=tmp_path)
    builds = []

    def factory():
        builds.append(1)
        return build_routing_plan(trace, ring, 1)

    key = plan_cache_key(trace, ring, 1)
    first = cache.get_or_build_plan(key, factory)
    again = cache.get_or_build_plan(key, factory)
    assert again is first  # memory hit
    assert len(builds) == 1
    # A fresh cache instance must come back from disk, not rebuild.
    cold = TraceCache(directory=tmp_path)
    reloaded = cold.get_or_build_plan(key, factory)
    assert len(builds) == 1
    assert reloaded.shard_ids.tolist() == first.shard_ids.tolist()


def test_trace_cache_memory_only_when_disk_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    cache = TraceCache()
    assert cache.directory is None  # no on-disk level at all
    trace = compile_trace([("a", f"k{i}", "get", 64) for i in range(20)])
    ring = HashRing(2, seed=0)
    key = plan_cache_key(trace, ring, 1)
    plan = cache.get_or_build_plan(
        key, lambda: build_routing_plan(trace, ring, 1)
    )
    # Memory level still serves the plan (factory must not rerun).
    assert cache.get_or_build_plan(key, lambda: None) is plan


def test_get_routing_plan_uses_supplied_cache(tmp_path):
    trace = compile_trace([("a", f"k{i}", "get", 64) for i in range(40)])
    ring = HashRing(3, seed=1)
    cache = TraceCache(directory=tmp_path)
    plan = get_routing_plan(trace, ring, 2, cache=cache)
    assert get_routing_plan(trace, ring, 2, cache=cache) is plan
    assert plan.shard_ids.tolist() == build_routing_plan(
        trace, ring, 2
    ).shard_ids.tolist()


# ---------------------------------------------------------------------------
# Failover columns from the plan's kept routing rows
# ---------------------------------------------------------------------------


def one_down_masks(shards):
    return [
        tuple(shard != down for shard in range(shards))
        for down in range(shards)
    ]


@pytest.mark.parametrize("replication", [1, 2, 3])
def test_loaded_plan_gives_the_built_plans_failover_columns(
    tmp_path, replication
):
    keys = [f"k{i % 37}" for i in range(300)]
    trace = compile_trace([("a", key, "get", 64) for key in keys])
    ring = HashRing(4, seed=3, virtual_nodes=8)
    built = build_routing_plan(trace, ring, replication)
    loaded = RoutingPlan.load(built.save(tmp_path / "plan.npz"))
    router = Router(ring, replication)
    fresh = TraceColumns(router, trace, built)
    reloaded = TraceColumns(router, trace, loaded)
    for mask in one_down_masks(ring.shards):
        assert reloaded.shard_ids(mask).tolist() == (
            fresh.shard_ids(mask).tolist()
        )
    for plan in (built, loaded):
        rows = plan.routing_rows(router, trace)
        kept = sum(column.nbytes for column in rows if column is not None)
        assert kept <= 8 * len(plan)


def test_failover_replays_hash_the_trace_once_per_plan(tmp_path, monkeypatch):
    from repro.sim import Scenario, load_workload, replay_on_cluster

    calls = []
    trace_rows = Router.trace_rows

    def counted(self, trace):
        calls.append(len(trace))
        return trace_rows(self, trace)

    monkeypatch.setattr(Router, "trace_rows", counted)
    params = {"apps": 2, "num_keys": 500, "requests_per_app": 4_000}
    workload = load_workload("zipf", scale=0.1, seed=0, **params)
    scenario = Scenario(
        workload="zipf",
        workload_params=params,
        scale=0.1,
        seed=0,
        cluster={"shards": 4, "replication": 2},
        faults={
            "events": [
                {"kind": "crash", "shard": 1, "at": 200},
                {"kind": "restart", "shard": 1, "at": 500},
            ],
            "policy": "failover",
        },
    )
    # A cold cache builds the plan (one hash, rows kept); a second cache
    # over the same directory loads it and derives the rows on the
    # first failover mask. Either way the second replay hashes nothing.
    for _ in ("built", "loaded from disk"):
        monkeypatch.setattr(
            "repro.workloads.compiled.GLOBAL_TRACE_CACHE",
            TraceCache(directory=tmp_path),
        )
        calls.clear()
        reports = [
            replay_on_cluster(scenario, workload)[0].report().to_dict()
            for _ in range(2)
        ]
        assert calls == [len(workload.compiled)]
        assert reports[0] == reports[1]


def test_digest_covers_keys_not_budgets():
    base = [("a", f"k{i % 7}", "get", 100) for i in range(40)]
    trace = compile_trace(base)
    same_keys = compile_trace(
        [(app, key, "set", size + 8) for app, key, op, size in base]
    )
    different = compile_trace(base[:-1])
    assert trace.routing_digest() == same_keys.routing_digest()
    assert trace.routing_digest() != different.routing_digest()


# ---------------------------------------------------------------------------
# Guard rails
# ---------------------------------------------------------------------------


def fcfs_cluster(shards, replication=1, seed=5, apps=("a",)):
    cluster = Cluster(
        ClusterConfig(
            shards=shards,
            replication=replication,
            hash_seed=seed,
            virtual_nodes=8,
        ),
        GEO,
    )
    for app in apps:
        cluster.add_app(
            app,
            1 << 19,
            lambda shard, share, app=app: FirstComeFirstServeEngine(
                app, share, GEO
            ),
        )
    return cluster


def test_mismatched_plan_rejected():
    trace = compile_trace([("a", f"k{i}", "get", 64) for i in range(30)])
    cluster = fcfs_cluster(3)
    wrong_ring = build_routing_plan(trace, HashRing(2, seed=5), 1)
    with pytest.raises(ConfigurationError, match="routing plan mismatch"):
        cluster.replay_compiled(trace, plan=wrong_ring)
    short = build_routing_plan(
        trace.slice(0, 10), cluster.ring, cluster.replication
    )
    with pytest.raises(ConfigurationError, match="routing plan mismatch"):
        cluster.replay_compiled(trace, plan=short)
    # Same shard count, different ring parameters: a silent misroute if
    # the plan only recorded its shape.
    same_shape_other_seed = build_routing_plan(
        trace, HashRing(3, seed=99, virtual_nodes=8), 1
    )
    with pytest.raises(ConfigurationError, match="routing plan mismatch"):
        cluster.replay_compiled(trace, plan=same_shape_other_seed)
    other_vnodes = build_routing_plan(
        trace, HashRing(3, seed=5, virtual_nodes=16), 1
    )
    with pytest.raises(ConfigurationError, match="routing plan mismatch"):
        cluster.replay_compiled(trace, plan=other_vnodes)


def test_unknown_app_rejected_up_front():
    trace = compile_trace([("ghost", "k", "get", 64)])
    with pytest.raises(ConfigurationError, match="unknown app"):
        fcfs_cluster(2).replay_compiled(trace)


def test_bad_replication_rejected():
    trace = compile_trace([("a", "k", "get", 64)])
    with pytest.raises(ConfigurationError, match="replication"):
        build_routing_plan(trace, HashRing(2), 0)
    # get_routing_plan must reject identically whether or not the cache
    # already holds the clamped-equivalent plan.
    cache = TraceCache(directory=None)
    get_routing_plan(trace, HashRing(2), 1, cache=cache)
    with pytest.raises(ConfigurationError, match="replication"):
        get_routing_plan(trace, HashRing(2), 0, cache=cache)


def test_effective_replication_single_definition():
    assert effective_replication(0, 4) == 1
    assert effective_replication(-3, 4) == 1
    assert effective_replication(2, 4) == 2
    assert effective_replication(9, 4) == 4
    assert effective_replication(1, 1) == 1


def test_plan_cache_key_uses_effective_replication():
    trace = compile_trace([("a", f"k{i}", "get", 64) for i in range(10)])
    ring = HashRing(3, seed=0)
    # Over-replication clamps to the shard count: same plan, same key.
    assert plan_cache_key(trace, ring, 9) == plan_cache_key(trace, ring, 3)
    assert plan_cache_key(trace, ring, 2) != plan_cache_key(trace, ring, 3)


# ---------------------------------------------------------------------------
# Corrupt plan files: range/shape/dtype validation on load
# ---------------------------------------------------------------------------


def save_tampered_plan(trace, ring, path, **overrides):
    """Save a valid plan, then overwrite chosen fields with bad values."""
    plan = build_routing_plan(trace, ring, 2)
    for name, value in overrides.items():
        setattr(plan, name, value)
    return plan.save(path)


def test_load_rejects_out_of_range_shard_ids(tmp_path):
    trace = compile_trace([("a", f"k{i}", "get", 64) for i in range(30)])
    ring = HashRing(4, seed=0)
    ids = build_routing_plan(trace, ring, 2).shard_ids.copy()
    ids[7] = 99  # corrupt: beyond [0, shards)
    path = save_tampered_plan(trace, ring, tmp_path / "hi.npz", shard_ids=ids)
    with pytest.raises(TraceFormatError, match="outside"):
        RoutingPlan.load(path)
    ids[7] = -1  # corrupt: negative
    path = save_tampered_plan(trace, ring, tmp_path / "lo.npz", shard_ids=ids)
    with pytest.raises(TraceFormatError, match="outside"):
        RoutingPlan.load(path)


def test_load_rejects_bad_dtype_shape_and_replication(tmp_path):
    trace = compile_trace([("a", f"k{i}", "get", 64) for i in range(30)])
    ring = HashRing(4, seed=0)
    good = build_routing_plan(trace, ring, 2).shard_ids
    path = save_tampered_plan(
        trace, ring, tmp_path / "f.npz", shard_ids=good.astype(np.float64)
    )
    with pytest.raises(TraceFormatError, match="integer"):
        RoutingPlan.load(path)
    path = save_tampered_plan(
        trace, ring, tmp_path / "2d.npz", shard_ids=good.reshape(2, -1)
    )
    with pytest.raises(TraceFormatError, match="1-d"):
        RoutingPlan.load(path)
    # The replication=0-from-disk regression: silently clamping on load
    # would let a corrupt file disagree with every other consumer.
    path = save_tampered_plan(trace, ring, tmp_path / "r0.npz", replication=0)
    with pytest.raises(TraceFormatError, match="replication"):
        RoutingPlan.load(path)
    path = save_tampered_plan(trace, ring, tmp_path / "s0.npz", shards=0)
    with pytest.raises(TraceFormatError, match="shard"):
        RoutingPlan.load(path)


def test_corrupt_cached_plan_is_rebuilt_and_repaired(tmp_path):
    trace = compile_trace([("a", f"k{i}", "get", 64) for i in range(60)])
    ring = HashRing(4, seed=0)
    expected = build_routing_plan(trace, ring, 2)
    # Poison the on-disk entry with out-of-range shard ids under the
    # real cache key, then fetch through a cold cache so the load path
    # (not the memory level) sees the corruption.
    poisoner = TraceCache(directory=tmp_path)
    bad = build_routing_plan(trace, ring, 2)
    bad.shard_ids = bad.shard_ids.copy()
    bad.shard_ids[0] = 1000
    key = plan_cache_key(trace, ring, 2)
    poisoner.store_plan(key, bad)
    cold = TraceCache(directory=tmp_path)
    healed = get_routing_plan(trace, ring, 2, cache=cold)
    assert healed.shard_ids.tolist() == expected.shard_ids.tolist()
    # Same recovery path as the stale-entry branch: the corrupt file was
    # overwritten, so a third cache instance loads the repair directly.
    reloaded = TraceCache(directory=tmp_path).get_or_build_plan(
        key, lambda: None
    )
    assert reloaded.shard_ids.tolist() == expected.shard_ids.tolist()


# ---------------------------------------------------------------------------
# The bit-identity property: production replay == per-request reference
# ---------------------------------------------------------------------------


def counters(server):
    return {
        key: (c.get_hits, c.get_misses, c.sets, c.shadow_hits, c.evictions)
        for key, c in server.stats.by_app_class.items()
    }


requests_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b"]),
        st.integers(min_value=0, max_value=60).map(lambda i: f"k{i:02d}"),
        st.sampled_from(["get", "get", "get", "set", "delete"]),
        st.integers(min_value=1, max_value=4000),
    ),
    min_size=1,
    max_size=300,
)


@settings(max_examples=25, deadline=None)
@given(
    rows=requests_strategy,
    shards=st.integers(min_value=1, max_value=5),
    replication=st.integers(min_value=1, max_value=3),
    hash_seed=st.integers(min_value=0, max_value=2**32),
)
def test_replay_bit_identical_to_reference(
    rows, shards, replication, hash_seed
):
    trace = compile_trace(rows)
    fast = fcfs_cluster(shards, replication, seed=hash_seed, apps=("a", "b"))
    oracle = fcfs_cluster(shards, replication, seed=hash_seed, apps=("a", "b"))
    fast_stats = fast.replay_compiled(trace)
    oracle_stats = replay_reference(oracle, trace)
    assert (
        fast_stats.total.get_hits,
        fast_stats.total.get_misses,
        fast_stats.total.sets,
        fast_stats.total.evictions,
    ) == (
        oracle_stats.total.get_hits,
        oracle_stats.total.get_misses,
        oracle_stats.total.sets,
        oracle_stats.total.evictions,
    )
    for fast_shard, oracle_shard in zip(fast.servers, oracle.servers):
        assert counters(fast_shard) == counters(oracle_shard)


@pytest.mark.parametrize("replication", [1, 2])
def test_epoch_replay_bit_identical_to_reference(replication):
    rows = []
    for i in range(2500):
        rows.append(
            (
                "a" if i % 3 else "b",
                f"k{(i * 7) % 90:02d}",
                ("get", "get", "set", "delete")[i % 4],
                64 + (i % 19) * 100,
            )
        )
    trace = compile_trace(rows)

    def with_rebalancer():
        cluster = fcfs_cluster(4, replication, apps=("a", "b"))
        cluster.attach_rebalancer(
            Rebalancer(
                cluster,
                RebalanceConfig(
                    epoch_requests=400, credit_bytes=8192.0, policy="load"
                ),
                seed=0,
            )
        )
        return cluster

    fast, oracle = with_rebalancer(), with_rebalancer()
    fast.replay_compiled(trace)
    replay_reference(oracle, trace)
    for fast_shard, oracle_shard in zip(fast.servers, oracle.servers):
        assert counters(fast_shard) == counters(oracle_shard)
    # Same epochs, same transfers, same per-epoch budget timeline.
    assert fast.rebalancer.to_dict() == oracle.rebalancer.to_dict()
