"""Cluster routing, aggregation, replication and the load report."""

import pytest

from repro.cache.engines import FirstComeFirstServeEngine
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import OP_GET
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.cluster import render_cluster_report
from repro.common.errors import ConfigurationError
from repro.workloads.compiled import CompiledTrace
from repro.workloads.trace import Request
from tests.cluster.reference import shard_for

GEO = SlabGeometry.default()


def fcfs_factory(app):
    return lambda shard, share: FirstComeFirstServeEngine(app, share, GEO)


def build(shards, replication=1, budget=1 << 20, apps=("a",), **kwargs):
    cluster = Cluster(
        ClusterConfig(shards=shards, replication=replication, **kwargs), GEO
    )
    for app in apps:
        cluster.add_app(app, budget, fcfs_factory(app))
    return cluster


def compile_gets(keys, app="a", size=100):
    return CompiledTrace.compile(
        [
            Request(time=float(i), app=app, key=key, op="get", value_size=size)
            for i, key in enumerate(keys)
        ],
        GEO,
    )


class TestConfig:
    def test_defaults_and_round_trip(self):
        config = ClusterConfig.from_dict({"shards": 4})
        assert config == ClusterConfig.from_dict(config.to_dict())
        assert config.replication == 1

    def test_unknown_and_bad_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown cluster"):
            ClusterConfig.from_dict({"shards": 2, "nodes": 3})
        # The retired replay-loop selector is an unknown field like any
        # other.
        with pytest.raises(
            ConfigurationError,
            match="unknown cluster fields: partitioned_replay",
        ):
            ClusterConfig.from_dict(
                {"shards": 2, "partitioned_replay": False}
            )
        with pytest.raises(ConfigurationError):
            ClusterConfig.from_dict({"shards": 0})
        with pytest.raises(ConfigurationError):
            ClusterConfig.from_dict({"shards": "two"})
        with pytest.raises(ConfigurationError):
            ClusterConfig.from_dict({"replication": 0})
        with pytest.raises(ConfigurationError):
            ClusterConfig.from_dict("not a dict")


class TestRouting:
    def test_each_key_lands_on_exactly_one_shard(self):
        cluster = build(4)
        keys = [f"k{i}" for i in range(300)]
        cluster.replay_compiled(compile_gets(keys + keys))
        # Second pass hits everywhere: every key's repeat request went
        # to the shard that cached it.
        merged = cluster.aggregate_stats()
        assert merged.total.get_hits == len(keys)
        assert merged.total.get_misses == len(keys)

    def test_per_shard_stats_sum_to_aggregate(self):
        cluster = build(4)
        cluster.replay_compiled(compile_gets([f"k{i}" for i in range(500)]))
        merged = cluster.aggregate_stats()
        assert (
            sum(s.stats.total.gets for s in cluster.servers)
            == merged.total.gets
            == 500
        )

    def test_object_api_routes_like_the_ring(self):
        cluster = build(3)
        cluster.process_batch(["hot"], [OP_GET], [100], ["a"])
        shard = shard_for(cluster.ring, "hot")
        assert cluster.servers[shard].stats.total.gets == 1

    def test_unknown_app_rejected(self):
        cluster = build(2)
        with pytest.raises(ConfigurationError, match="unknown app"):
            cluster.replay_compiled(compile_gets(["k"], app="ghost"))

    def test_geometry_mismatch_rejected(self):
        cluster = build(2)
        other = CompiledTrace.compile(
            [Request(0.0, "a", "k", "get", value_size=100)],
            SlabGeometry((64, 4096)),
        )
        with pytest.raises(ConfigurationError, match="slab geometry"):
            cluster.replay_compiled(other)

    def test_factory_app_mismatch_rejected(self):
        cluster = Cluster(ClusterConfig(shards=2), GEO)
        with pytest.raises(ConfigurationError, match="factory"):
            cluster.add_app("a", 1 << 20, fcfs_factory("b"))


class TestReplication:
    def test_replication_spreads_a_hot_key(self):
        cluster = build(4, replication=2)
        cluster.replay_compiled(compile_gets(["hot"] * 400))
        loads = [s.stats.total.gets for s in cluster.servers]
        # Round-robin over the 2 replicas: exactly two shards, 200 each.
        assert sorted(loads, reverse=True)[:2] == [200, 200]
        assert sum(loads) == 400

    def test_replication_clamped_to_shard_count(self):
        cluster = build(2, replication=8)
        assert cluster.replication == 2
        # The clamp happens in the config, so spec, config and report
        # all show the same effective value.
        assert cluster.config.replication == 2
        assert ClusterConfig.from_dict(
            {"shards": 2, "replication": 8}
        ).to_dict()["replication"] == 2

    def test_replicas_fill_independently(self):
        cluster = build(4, replication=2)
        # 4 requests round-robin over 2 replicas: each replica sees the
        # key twice -- one cold miss then one hit apiece.
        cluster.replay_compiled(compile_gets(["hot"] * 4))
        merged = cluster.aggregate_stats()
        assert merged.total.get_misses == 2
        assert merged.total.get_hits == 2


class TestReport:
    def test_report_fields_and_totals(self):
        cluster = build(4)
        cluster.replay_compiled(compile_gets([f"k{i}" for i in range(400)]))
        report = cluster.report()
        assert report.shards == 4
        assert sum(load.requests for load in report.shard_loads) == 400
        assert report.requests == 400
        assert report.imbalance >= 1.0
        payload = report.to_dict()
        assert payload["shards"] == 4
        assert len(payload["shard_loads"]) == 4
        assert "hot shards" in "\n".join(render_cluster_report(payload))

    def test_hot_shard_detection(self):
        cluster = build(4)
        hot_shard = shard_for(cluster.ring, "hot")
        keys = ["hot"] * 900 + [f"k{i}" for i in range(100)]
        cluster.replay_compiled(compile_gets(keys))
        report = cluster.report()
        assert hot_shard in report.hot_shards
        assert report.imbalance > 2.0

    def test_memory_accounting_sums_shards(self):
        cluster = build(2, budget=1 << 20)
        cluster.replay_compiled(compile_gets([f"k{i}" for i in range(50)]))
        assert cluster.memory_reserved() == pytest.approx(1 << 20)
        assert 0 < cluster.memory_in_use() <= cluster.memory_reserved()


class TestRebalancerAttachment:
    """Cluster-level rebalancing API, below the Scenario layer."""

    def test_report_carries_no_rebalance_section_by_default(self):
        cluster = build(2)
        cluster.replay_compiled(compile_gets([f"k{i}" for i in range(50)]))
        assert cluster.rebalancer is None
        assert cluster.report().to_dict()["rebalance"] is None

    def test_attached_rebalancer_fires_epochs_and_moves_load_budget(self):
        from repro.cluster import RebalanceConfig, Rebalancer

        cluster = build(4, budget=1 << 20)
        cluster.attach_rebalancer(
            Rebalancer(
                cluster,
                RebalanceConfig(
                    epoch_requests=100,
                    credit_bytes=4096.0,
                    policy="load",
                ),
                seed=0,
            )
        )
        # One hot key dominates: its shard should win every epoch.
        hot_shard = shard_for(cluster.ring, "hot")
        keys = (["hot"] * 9 + ["cold"]) * 100
        cluster.replay_compiled(compile_gets(keys))
        report = cluster.report().to_dict()["rebalance"]
        assert report["epochs"] == len(keys) // 100
        assert report["transfers"] == report["epochs"]
        budgets = report["shard_budgets"]
        assert budgets[hot_shard] == max(budgets)
        assert sum(budgets) == pytest.approx(1 << 20)  # app total conserved
        assert "rebalance (load)" in "\n".join(
            render_cluster_report(cluster.report().to_dict())
        )
