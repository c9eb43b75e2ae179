"""Shared helpers for the cluster parity suites."""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import strategies as st

from repro.sim import load_workload
from repro.sim.runner import prepare_cluster
from tests.cluster.reference import replay_reference


def counters_snapshot(stats):
    """Every per-(app, class) counter of one registry, comparable."""
    return {
        key: (
            c.get_hits,
            c.get_misses,
            c.sets,
            c.shadow_hits,
            c.evictions,
            c.dead_requests,
        )
        for key, c in stats.by_app_class.items()
    }


def shard_snapshots(result):
    """:func:`counters_snapshot` of each shard server's own registry."""
    return [
        counters_snapshot(server.stats) for server in result.cluster.servers
    ]


def run_reference(scenario):
    """``scenario`` replayed through :func:`replay_reference` instead of
    the production replay: the same cluster :func:`run_scenario` builds
    (budgets, seeds, rebalancer, fault injector), exposed under the
    ``ScenarioResult`` attribute names the parity tests compare."""
    trace = load_workload(
        scenario.workload,
        scale=scenario.scale,
        seed=scenario.seed,
        **scenario.workload_params,
    )
    cluster, compiled = prepare_cluster(scenario, trace)
    stats = replay_reference(cluster, compiled)
    return SimpleNamespace(
        cluster=cluster,
        stats=stats,
        hit_rates={
            app: stats.app_hit_rate(app) for app in compiled.app_table
        },
        overall_hit_rate=stats.total.hit_rate(),
        requests=stats.total.gets + stats.total.sets,
        cluster_report=cluster.report(stats=stats).to_dict(),
    )


@st.composite
def schedules(draw, total, shards=4):
    """A valid crash(/restart) schedule over 1-2 distinct shards."""
    pairs = draw(st.integers(min_value=1, max_value=2))
    targets = draw(
        st.lists(
            st.integers(min_value=0, max_value=shards - 1),
            min_size=pairs,
            max_size=pairs,
            unique=True,
        )
    )
    offsets = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=total - 1),
                min_size=2 * pairs,
                max_size=2 * pairs,
                unique=True,
            )
        )
    )
    # Crashes first (offset order), then restarts in the same shard
    # order: globally non-decreasing and per-shard alternating. With
    # pairs < shards at least one shard always stays live.
    events = [
        {"kind": "crash", "shard": shard, "at": offsets[i]}
        for i, shard in enumerate(targets)
    ] + [
        {"kind": "restart", "shard": shard, "at": offsets[pairs + i]}
        for i, shard in enumerate(targets)
    ]
    policy = draw(st.sampled_from(["failover", "miss-through"]))
    return {"events": events, "policy": policy}
