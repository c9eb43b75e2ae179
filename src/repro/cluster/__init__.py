"""``repro.cluster``: multi-server simulation on consistent hashing.

A :class:`Cluster` owns N :class:`~repro.cache.server.CacheServer`
shards, routes keys over a :class:`HashRing`, and aggregates per-shard
statistics into one :class:`ClusterReport` (per-app hit rates, per-shard
load, imbalance, hot-shard detection). Scenarios opt in through their
``cluster`` block; see :func:`repro.sim.run_scenario`.

Shard budgets default to a frozen even split; a scenario's ``rebalance``
block attaches an epoch-driven :class:`Rebalancer` that moves budget
credits between shards online (see :mod:`repro.cluster.rebalance`).

Cluster replays are routing-plan driven: a vectorized pass
(:mod:`repro.cluster.routing`) computes every request's shard up front,
and between barriers each (shard, app) run goes through the cache
layer's one replay kernel (:mod:`repro.cache.kernel`) -- the same code a
bare :class:`~repro.cache.server.CacheServer` replays with -- whether
the caller is the offline replay, a parallel worker or the live batch
path (:meth:`Cluster.process_batch`, the only way requests enter a
cluster one batch at a time).
"""

from repro.cluster.cluster import (
    Cluster,
    ClusterConfig,
    ClusterReport,
    ShardLoad,
    render_cluster_report,
)
from repro.cluster.faults import (
    FAULT_POLICIES,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)
from repro.cluster.hashring import HashRing
from repro.cluster.rebalance import RebalanceConfig, Rebalancer
from repro.cluster.routing import (
    LiveRouter,
    RoutingPlan,
    build_routing_plan,
    get_routing_plan,
)

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterReport",
    "FAULT_POLICIES",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "HashRing",
    "LiveRouter",
    "RebalanceConfig",
    "Rebalancer",
    "RoutingPlan",
    "ShardLoad",
    "build_routing_plan",
    "get_routing_plan",
    "render_cluster_report",
]
