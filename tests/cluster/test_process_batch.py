"""Object-API batch parity: ``process_batch`` vs the per-request walk.

``Cluster.process_batch`` is the only way requests enter a live cluster
-- it must be bit-identical to handling them one at a time
(``tests/cluster/reference.py::process_reference``), down to per-shard
per-(app, slab class) counters, packed outcome codes, replica
round-robin state and rebalance epoch barriers. A Hypothesis
property drives random request sequences (mixed ops, shared keys,
multiple tenants) through both paths on twin clusters, under
replication, live-set failover/miss-through flips between batches, and
rebalance epochs landing mid-batch.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache.engines import FirstComeFirstServeEngine
from repro.cache.log_structured import GlobalLRUEngine
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import OP_CODES, OP_GET, OP_SET
from repro.cluster import (
    Cluster,
    ClusterConfig,
    FaultInjector,
    FaultSchedule,
    RebalanceConfig,
    Rebalancer,
)
from repro.common.constants import ITEM_OVERHEAD_BYTES
from repro.common.errors import CacheError, ConfigurationError
from repro.sim import SCHEMES
from repro.sim.runner import ScenarioEngineFactory
from repro.workloads.compiled import CompiledTrace
from repro.workloads.trace import Request
from tests.cluster.reference import (
    process_reference,
    shard_for,
    shards_for,
    shards_for_live,
)
from tests.workloads.reference_streams import iter_requests

GEO = SlabGeometry.default()

#: Engines the batch-vs-oracle property runs over: one that charges
#: chunks (reads ``chunk``) and one that charges ``item_bytes``.
ENGINES = (FirstComeFirstServeEngine, GlobalLRUEngine)


def build(
    shards=4,
    replication=1,
    budget=1 << 18,
    apps=("a", "b"),
    engine=FirstComeFirstServeEngine,
    **kwargs,
):
    cluster = Cluster(
        ClusterConfig(shards=shards, replication=replication, **kwargs), GEO
    )
    for app in apps:
        cluster.add_app(
            app, budget, lambda shard, share, app=app: engine(app, share, GEO)
        )
    return cluster


def make_requests(spec):
    """``spec`` rows are (key_index, op, value_size, app_index)."""
    return [
        Request(
            time=float(i),
            app=("a", "b")[app_index],
            key=f"k{key_index:03d}",
            op=op,
            value_size=value_size,
        )
        for i, (key_index, op, value_size, app_index) in enumerate(spec)
    ]


def run_oracle(cluster, requests):
    return [process_reference(cluster, request) for request in requests]


def run_batch(cluster, requests):
    return cluster.process_batch(
        [r.key for r in requests],
        [OP_CODES[r.op] for r in requests],
        [r.value_size for r in requests],
        [r.app for r in requests],
    )


def per_shard_snapshot(cluster):
    return [
        {
            key: (
                c.get_hits,
                c.get_misses,
                c.sets,
                c.shadow_hits,
                c.evictions,
                c.dead_requests,
            )
            for key, c in server.stats.by_app_class.items()
        }
        for server in cluster.servers
    ]


def assert_twin_state(oracle, batch):
    assert per_shard_snapshot(batch) == per_shard_snapshot(oracle)
    assert batch.router.spread == oracle.router.spread
    assert batch.object_requests == oracle.object_requests


REQUEST_SPECS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=24),  # key pool of 25
        st.sampled_from(["get", "set", "delete"]),
        st.integers(min_value=0, max_value=4096),
        st.integers(min_value=0, max_value=1),
    ),
    min_size=1,
    max_size=200,
)


class TestBatchParity:
    @settings(max_examples=30, deadline=None)
    @given(
        spec=REQUEST_SPECS,
        shards=st.integers(min_value=1, max_value=4),
        replication=st.integers(min_value=1, max_value=3),
        engine=st.sampled_from(ENGINES),
    )
    @example(
        # Two 4 + 4060 B items fill an 8 KiB log exactly when charged
        # key + value; charged 48 B more each, the second evicts the
        # first and the GET misses.
        spec=[(0, "set", 4060, 0), (1, "set", 4060, 0), (0, "get", 4060, 0)],
        shards=1,
        replication=1,
        engine=GlobalLRUEngine,
    )
    def test_bit_identical_to_per_request_oracle(
        self, spec, shards, replication, engine
    ):
        requests = make_requests(spec)
        # Small enough that a short stream evicts: an engine that
        # charges bytes then tells a mis-sized row from a right one.
        shape = dict(
            shards=shards, replication=replication, engine=engine,
            budget=1 << 13,
        )
        oracle = build(**shape)
        batch = build(**shape)
        assert run_batch(batch, requests) == run_oracle(oracle, requests)
        assert_twin_state(oracle, batch)

    @settings(max_examples=20, deadline=None)
    @given(
        spec=REQUEST_SPECS,
        epoch_requests=st.integers(min_value=1, max_value=37),
        split=st.integers(min_value=0, max_value=200),
    )
    def test_mid_batch_rebalance_epochs_match(
        self, spec, epoch_requests, split
    ):
        """Epochs land inside a batch exactly where the per-request
        counter puts them -- including when the batch starts partway
        into an epoch (the ``split`` point cuts the stream in two)."""
        requests = make_requests(spec)
        config = RebalanceConfig(
            epoch_requests=epoch_requests,
            credit_bytes=4096.0,
            policy="load",
        )
        oracle = build(shards=3)
        batch = build(shards=3)
        oracle.attach_rebalancer(Rebalancer(oracle, config, seed=0))
        batch.attach_rebalancer(Rebalancer(batch, config, seed=0))
        split = min(split, len(requests))
        oracle_codes = run_oracle(oracle, requests)
        batch_codes = run_batch(batch, requests[:split]) + run_batch(
            batch, requests[split:]
        )
        assert batch_codes == oracle_codes
        assert_twin_state(oracle, batch)
        assert (
            batch.rebalancer.to_dict()["epochs"]
            == oracle.rebalancer.to_dict()["epochs"]
        )
        assert (
            batch.rebalancer.budgets() == oracle.rebalancer.budgets()
        )

    @settings(max_examples=20, deadline=None)
    @given(
        spec=REQUEST_SPECS,
        policy=st.sampled_from(["failover", "miss-through"]),
        dead_shard=st.integers(min_value=0, max_value=3),
        flip_at=st.integers(min_value=0, max_value=200),
        replication=st.integers(min_value=1, max_value=2),
    )
    def test_live_set_failover_matches(
        self, spec, policy, dead_shard, flip_at, replication
    ):
        """A shard dies partway through the stream: ``failover`` reroutes
        around it, ``miss-through`` records tagged dead misses. The
        per-request oracle sees liveness flips between calls, so the
        batch path splits at the flip point like a server would."""
        requests = make_requests(spec)
        flip_at = min(flip_at, len(requests))
        schedule = FaultSchedule.from_dict({"policy": policy, "events": []})
        oracle = build(shards=4, replication=replication)
        batch = build(shards=4, replication=replication)
        oracle.attach_faults(FaultInjector(oracle, schedule))
        batch.attach_faults(FaultInjector(batch, schedule))

        def kill(cluster):
            cluster.fault_injector.live[dead_shard] = False

        oracle_codes = run_oracle(oracle, requests[:flip_at])
        kill(oracle)
        oracle_codes += run_oracle(oracle, requests[flip_at:])
        batch_codes = run_batch(batch, requests[:flip_at])
        kill(batch)
        batch_codes += run_batch(batch, requests[flip_at:])
        assert batch_codes == oracle_codes
        assert_twin_state(oracle, batch)

    def test_compiled_workload_stream_parity(self):
        """A realistic Zipf stream (shared keys, skewed popularity)
        through both paths, replication 2 -- the deterministic anchor
        backing the Hypothesis property."""
        from repro.sim import load_workload

        trace = load_workload(
            "zipf",
            scale=0.05,
            seed=0,
            apps=2,
            num_keys=500,
            requests_per_app=2_000,
        ).compiled
        requests = list(iter_requests(trace))[:3_000]
        apps = tuple(trace.app_table)
        oracle = build(shards=4, replication=2, apps=apps)
        batch = build(shards=4, replication=2, apps=apps)
        assert run_batch(batch, requests) == run_oracle(oracle, requests)
        assert_twin_state(oracle, batch)


def mixed_stream(count=6_000, seed=7):
    """Seeded GET/SET/DELETE traffic of two tenants over 300 shared keys
    whose sizes move between five values, so items cross slab classes."""
    rng = random.Random(seed)
    return [
        Request(
            time=float(i),
            app=rng.choice(("a", "b")),
            key=f"k{rng.randrange(300):03d}",
            op=rng.choices(("get", "set", "delete"), (75, 20, 5))[0],
            value_size=rng.choice((50, 100, 200, 400, 900)),
        )
        for i in range(count)
    ]


def scheme_cluster(scheme, shards, budget=96 << 10):
    """Every tenant under ``scheme``, built by the scenario layer's own
    engine factory (``planned`` splits the budget over the stream's four
    slab classes)."""
    cluster = Cluster(ClusterConfig(shards=shards), GEO)
    plan = {class_index: budget / 4 for class_index in (1, 2, 3, 4)}
    for app in ("a", "b"):
        cluster.add_app(
            app,
            budget,
            ScenarioEngineFactory(
                scheme, app, 0.02, 0, "lru", plan, shards, {}
            ),
        )
    return cluster


class TestOfflineLiveParity:
    """One stream, three doors -- ``replay_compiled`` (offline),
    ``process_batch`` in uneven cuts (live) and the per-request oracle
    (each request's row from ``SlabGeometry.row`` on its own) -- must
    leave every shard with the same counters whatever the engine reads
    off the row (``chunk`` or ``item_bytes``)."""

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("scheme", SCHEMES.names())
    def test_every_scheme_scores_the_same_through_every_door(
        self, scheme, shards
    ):
        requests = mixed_stream()
        offline = scheme_cluster(scheme, shards)
        offline.replay_compiled(CompiledTrace.compile(requests, GEO))
        live = scheme_cluster(scheme, shards)
        live_codes, start, width = [], 0, 1
        while start < len(requests):
            live_codes += run_batch(live, requests[start : start + width])
            start, width = start + width, width * 3 % 500 + 1
        oracle = scheme_cluster(scheme, shards)
        assert live_codes == run_oracle(oracle, requests)
        expected = per_shard_snapshot(offline)
        assert any(c[4] for shard in expected for c in shard.values())
        assert per_shard_snapshot(live) == expected
        assert per_shard_snapshot(oracle) == expected

    def test_compile_and_live_batches_build_the_same_rows(self):
        """The ``(key, op, slab_class, item_bytes)`` rows the engines
        receive through ``process_batch`` are the compiled columns: each
        engine gets its own rows in request order."""
        requests = mixed_stream(count=500)
        compiled = CompiledTrace.compile(requests, GEO)
        expected = list(zip(*(c.tolist() for c in compiled.replay_columns())))
        cluster = build(shards=3)
        logs = []
        for server in cluster.servers:
            for engine in server.engines.values():
                log = []
                logs.append(log)

                def spy(rows, process=engine.process_run, log=log):
                    rows = list(rows)
                    log += rows
                    return process(rows)

                engine.process_run = spy
        run_batch(cluster, requests)
        assert sorted(row for log in logs for row in log) == sorted(expected)
        for log in logs:  # each in request order
            remaining = iter(expected)
            assert all(row in remaining for row in log)
        assert len(set(compiled.slab_classes.tolist())) > 2


def cluster_state(cluster):
    """Everything a served request can change on ``cluster``."""
    return (
        cluster.memory_in_use(),
        per_shard_snapshot(cluster),
        [
            {app: vars(engine.ops).copy() for app, engine in server.engines.items()}
            for server in cluster.servers
        ],
        dict(cluster.router.spread),
        dict(cluster.router._position_memo),
        cluster.object_requests,
    )


class TestRejectedBatch:
    """Every row is checked before the first is served: a batch whose
    *last* row is bad is refused whole and leaves no trace -- no engine
    touched, no counter, replica turn, memoized position or clock moved.
    """

    @pytest.mark.parametrize(
        "bad, error, match",
        [
            (dict(apps=["a", "b", "ghost"]), ConfigurationError, "unknown app"),
            (
                # One byte past the largest chunk with its 4-byte key.
                dict(
                    value_sizes=[
                        100, 100, GEO.chunk_sizes[-1] - ITEM_OVERHEAD_BYTES - 3
                    ]
                ),
                CacheError,
                "exceeds largest chunk",
            ),
        ],
        ids=["unknown-app", "oversized"],
    )
    def test_bad_last_row_changes_nothing(self, bad, error, match):
        cluster = build(shards=3, replication=2)
        warm = mixed_stream(count=300)
        run_batch(cluster, warm)
        before = cluster_state(cluster)
        batch = dict(
            keys=["k001", "fresh", "k002"],
            ops=[OP_SET, OP_GET, OP_GET],
            value_sizes=[100, 100, 100],
            apps=["a", "b", "a"],
        )
        batch.update(bad)
        with pytest.raises(error, match=match):
            cluster.process_batch(**batch)
        assert cluster_state(cluster) == before
        # The same batch with its bad row fixed is served.
        cluster.process_batch(
            ["k001", "fresh"], [OP_SET, OP_GET], [100, 100], ["a", "b"]
        )
        assert cluster_state(cluster) != before


class TestBatchInterface:
    def test_integer_op_codes_accepted(self):
        cluster = build(shards=2, apps=("a",))
        set_then_get = cluster.process_batch(
            ["x", "x"], [OP_SET, OP_GET], [100, 100], ["a", "a"]
        )
        assert set_then_get[1] & 1  # the GET after the SET hits

    def test_unknown_app_fails_fast_without_mutating(self):
        cluster = build(shards=2)
        with pytest.raises(ConfigurationError, match="unknown app"):
            cluster.process_batch(
                ["x", "y"], [OP_GET, OP_GET], [100, 100], ["a", "ghost"]
            )
        assert cluster.aggregate_stats().total.gets == 0

    def test_oversized_item_raises_before_processing(self):
        cluster = build(shards=2)
        with pytest.raises(CacheError, match="exceeds largest chunk"):
            cluster.process_batch(
                ["ok", "huge"], [OP_SET, OP_SET], [100, 1 << 21], ["a", "a"]
            )
        assert cluster.aggregate_stats().total.sets == 0


class TestRouteMemoization:
    def test_route_hashes_each_key_once(self, monkeypatch):
        cluster = build(shards=4)
        calls = []
        original = cluster.ring.position_for

        def counting(key):
            calls.append(key)
            return original(key)

        monkeypatch.setattr(cluster.ring, "position_for", counting)
        first = [cluster.route("hot") for _ in range(5)]
        assert len(set(first)) == 1
        assert calls == ["hot"]

    def test_route_matches_ring_walk(self):
        single = build(shards=5, replication=1)
        for i in range(40):
            key = f"k{i}"
            assert single.route(key) == shard_for(single.ring, key)
        spread = build(shards=5, replication=3)
        for i in range(10):
            key = f"r{i}"
            replicas = shards_for(spread.ring, key, 3)
            seen = [spread.route(key) for _ in range(6)]
            assert seen == (replicas * 2)

    def test_batch_reuses_and_fills_the_position_memo(self):
        cluster = build(shards=4, apps=("a",))
        cluster.route("x")  # memoized by the scalar path
        cluster.process_batch(["x", "y", "z"], [OP_GET] * 3, [100] * 3, ["a"] * 3)
        memo = cluster.router._position_memo
        assert set(memo) == {"x", "y", "z"}
        assert memo["y"] == cluster.ring.position_for("y")

    def test_failover_columns_memoized_per_live_set(self):
        schedule = FaultSchedule.from_dict(
            {"policy": "failover", "events": []}
        )
        cluster = build(shards=4)
        cluster.attach_faults(FaultInjector(cluster, schedule))
        key = "k"
        healthy = cluster.route(key)
        cluster.fault_injector.live[healthy] = False
        rerouted = cluster.route(key)
        assert rerouted != healthy
        assert rerouted == shards_for_live(
            cluster.ring, key, 1, cluster.fault_injector.live
        )[0]
        # Both live sets keep their columns; recovery reuses the first.
        assert len(cluster.router._successors) == 2
        cluster.fault_injector.live[healthy] = True
        assert cluster.route(key) == healthy
        assert len(cluster.router._successors) == 2

    def test_position_memo_is_capped_without_changing_routes(
        self, monkeypatch
    ):
        """A unique-key stream must not grow the key -> position memo
        forever; it is a pure cache, so clearing it changes nothing."""
        from repro.cluster import routing

        cap = 64
        keys = [f"u{i:05d}" for i in range(10 * cap)]
        # A hot key straddles every clear: its replica turns must carry.
        stream = [key for unique in keys for key in (unique, "hot")]

        def run():
            cluster = build(shards=4, replication=2, apps=("a",))
            shards = []
            for low in range(0, len(stream), 48):
                chunk = stream[low : low + 48]
                count = len(chunk)
                cluster.process_batch(
                    chunk, [OP_SET] * count, [100] * count, ["a"] * count
                )
                shards.extend(cluster.route(key) for key in chunk[:3])
            return cluster, shards

        uncapped, expected = run()
        assert len(uncapped.router._position_memo) == len(keys) + 1
        monkeypatch.setattr(routing, "POSITION_MEMO_CAP", cap)
        capped, shards = run()
        assert len(capped.router._position_memo) <= cap
        assert shards == expected
        assert per_shard_snapshot(capped) == per_shard_snapshot(uncapped)
        assert capped.router.spread == uncapped.router.spread
