"""``repro.cluster``: multi-server simulation on consistent hashing.

A :class:`Cluster` owns N :class:`~repro.cache.server.CacheServer`
shards, routes keys over a :class:`HashRing`, and aggregates per-shard
statistics into one :class:`ClusterReport` (per-app hit rates, per-shard
load, imbalance, hot-shard detection). Scenarios opt in through their
``cluster`` block; see :func:`repro.sim.run_scenario`.

Shard budgets default to a frozen even split; a scenario's ``rebalance``
block attaches an epoch-driven :class:`Rebalancer` that moves budget
credits between shards online (see :mod:`repro.cluster.rebalance`).

One clock, one window driver, one router: requests count on a single
clock (trace position offline, requests served live); one loop
(:meth:`Cluster._drive`) runs them window by window between barriers --
rebalance epochs, the armed fault injector's events and end -- for the
offline replay and the live :meth:`Cluster.process_batch` alike, and
samples the fault timeline inside windows; one :class:`Router` turns
keys into shards for all of them.
Inside an offline window each (shard, app) run goes through the cache
layer's one replay kernel (:mod:`repro.cache.kernel`), as on a bare
``CacheServer``; a live batch walks its few rows one at a time.
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
    Router,
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
    "RebalanceConfig",
    "Rebalancer",
    "Router",
    "RoutingPlan",
    "ShardLoad",
    "build_routing_plan",
    "get_routing_plan",
    "render_cluster_report",
]
