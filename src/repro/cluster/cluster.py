"""Multi-server simulation: N :class:`CacheServer` shards behind a ring.

Cliffhanger "runs on each memory cache server and does not require any
coordination between different servers" (paper section 4.3), so a
cluster run is nothing but *windows of independent (shard, app) runs
separated by barriers*. A :class:`Cluster` adds two things around the
request-execution path a single server already has
(:mod:`repro.cache.kernel`):

* **one router** (:class:`~repro.cluster.routing.Router`): key -> shard
  under a live mask and the key's replica turn. The cluster only picks
  the mask (:meth:`Cluster._route_mask`: failover vs. miss-through).
* **one window driver on one clock** (:meth:`Cluster._drive`): find the
  next barrier after the clock -- the next rebalance-epoch multiple or
  the armed fault injector's next event or end -- serve the window, run
  :meth:`Cluster._barrier`. The fault timeline's samples are not
  barriers: a sample offset inside the window is a *cut*, the window
  comes back with the GET hits and GETs before each cut, and the cut
  samples fire through :meth:`Cluster._barrier` with those totals before
  the window's own barrier. The offline replay drives a whole trace
  from clock 0 through the kernel; the live batch path walks one batch,
  request by request, from the requests served so far. Same loop, so a
  seed and a schedule fix where every hook fires whoever is driving. A
  cluster with no barrier hooks may instead replay in worker processes
  (:mod:`repro.cluster.parallel`): its only barrier is the trace's end.

A one-shard cluster is the N=1 case and replays bit-identically to a
bare :class:`CacheServer`. Replication (R > 1) spreads each key's
requests round-robin across its R successor shards; every replica fills
its cache independently, trading per-replica hit rate for hot-shard
load relief. Shard budgets start frozen at an even split; an attached
:class:`~repro.cluster.rebalance.Rebalancer` moves credits between
shards at every epoch barrier (without one the run is bit-identical to
the static path).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.cache.engines import Engine, Row
from repro.cache.kernel import (
    CutTally,
    Run,
    cut_tallies,
    flush_runs,
    replay_runs,
)
from repro.cache.server import CacheServer
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import OUTCOME_DEAD, HitMissCounter, StatsRegistry
from repro.common.constants import ITEM_OVERHEAD_BYTES
from repro.common.errors import CacheError, ConfigurationError
from repro.common.spec import Spec, spec_field
from repro.cluster.hashring import HashRing
from repro.cluster.routing import (
    Router,
    RoutingPlan,
    TraceColumns,
    build_routing_plan,
)

#: Engine factory for one tenant: ``(shard_index, budget_share) -> Engine``.
EngineFactory = Callable[[int, float], Engine]
#: ``(start, stop, mask, dead, cuts) -> one (GET hits, GETs) per cut``:
#: how :meth:`Cluster._drive` has a window served (see there).
ReplayWindow = Callable[
    [int, int, Tuple[bool, ...], Collection[int], Sequence[int]],
    List[CutTally],
]

#: A shard is *hot* when its request count exceeds this many times the
#: per-shard mean.
HOT_FACTOR = 1.5


def scale_engine_budgets(engines, target: float) -> int:
    """Proportionally scale a shard's engine budgets to sum to ``target``.

    The one implementation behind every shard resize -- rebalance
    transfers, fault-time drains and reclaims. Proportional scaling
    keeps the apps' relative shares on the shard intact; only the
    shard's total moves, mirroring how an operator resizes a memcache
    instance rather than one tenant on it. Returns the evictions the
    shrink enforced.
    """
    engines = list(engines)
    current = sum(engine.budget_bytes for engine in engines)
    if current <= 0:
        # A fully drained shard (min_shard_fraction == 0) has no
        # proportions left to scale; split the grant evenly across its
        # apps so a transfer's credit is never destroyed.
        if target > 0 and engines:
            share = target / len(engines)
            for engine in engines:
                engine.grow_budget(share - engine.budget_bytes)
        return 0
    evictions = 0
    scale = target / current
    for engine in engines:
        delta = engine.budget_bytes * (scale - 1.0)
        if delta >= 0:
            engine.grow_budget(delta)
        else:
            evictions += engine.shrink_budget(-delta)
    return evictions


@dataclass(frozen=True)
class ClusterConfig(Spec):
    """The serializable shape of a scenario's ``cluster`` block.

    ``replication`` is clamped to the shard count at construction, so a
    spec, the config built from it, and the replay's report always show
    the same effective value (and shard-count sweeps with a fixed
    replication stay valid at small shard counts).

    ``parallel_workers`` (default ``0``) splits an offline replay's
    shards across that many worker processes (see
    :mod:`repro.cluster.parallel`), bit-identically. ``0`` and ``1``
    replay in-process; values above the shard count clamp to it, and a
    one-shard cluster always replays in-process. Only a cluster with no
    barrier hooks replays in parallel: with a ``rebalance`` or
    ``faults`` block attached, the replay raises
    :class:`ConfigurationError` instead.
    """

    BLOCK = "cluster"

    shards: int = spec_field(1, ge=1)
    hash_seed: int = 0
    replication: int = spec_field(1, ge=1)
    virtual_nodes: int = spec_field(64, ge=1)
    parallel_workers: int = spec_field(0, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.replication > self.shards:
            object.__setattr__(self, "replication", self.shards)


@dataclass
class ShardLoad:
    """One shard's share of a replay."""

    shard: int
    requests: int
    gets: int
    hit_rate: float
    memory_used_bytes: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "requests": self.requests,
            "gets": self.gets,
            "hit_rate": self.hit_rate,
            "memory_used_bytes": self.memory_used_bytes,
        }


def render_cluster_report(payload: Dict[str, Any]) -> List[str]:
    """Plain-text lines for a cluster-report dict.

    The formatter behind :meth:`repro.sim.ScenarioResult.render`.
    """
    hot = set(payload["hot_shards"])
    lines = [
        f"cluster: {payload['shards']} shard(s), replication "
        f"{payload['replication']}, imbalance "
        f"{payload['imbalance']:.3f} (max/mean), hot shards: "
        f"{payload['hot_shards'] or 'none'}"
    ]
    for load in payload["shard_loads"]:
        mark = "  *hot*" if load["shard"] in hot else ""
        lines.append(
            f"  shard {load['shard']}: {load['requests']:,} requests, "
            f"hit rate {load['hit_rate']:.4f}, "
            f"{load['memory_used_bytes'] / (1 << 20):.2f} MB used{mark}"
        )
    rebalance = payload.get("rebalance")
    if rebalance is not None:
        lines.append(
            f"  rebalance ({rebalance['policy']}): "
            f"{rebalance['transfers']} transfer(s) of "
            f"{rebalance['credit_bytes'] / 1024:.0f} KB over "
            f"{rebalance['epochs']} epoch(s) of "
            f"{rebalance['epoch_requests']:,} requests"
        )
        lines.append(
            "  shard budgets now: "
            + ", ".join(
                f"{budget / (1 << 20):.2f} MB"
                for budget in rebalance["shard_budgets"]
            )
        )
    faults = payload.get("faults")
    if faults is not None:
        lines.append(
            f"  faults ({faults['policy']}): {len(faults['events'])} "
            f"event(s), {len(faults['crashes'])} crash(es), "
            f"{faults['dead_requests']:,} dead request(s), "
            f"{faults['fault_evictions']:,} fault eviction(s)"
        )
        for crash in faults["crashes"]:
            line = (
                f"    shard {crash['shard']} down @ {crash['crash_at']:,} "
                f"for {crash['downtime_requests']:,} request(s), "
                f"pre-fault hit rate {crash['pre_fault_hit_rate']:.4f}, "
                f"miss cost {crash['miss_cost']:.0f}"
            )
            if crash["recovered_at"] is not None:
                line += (
                    f", recovered @ {crash['recovered_at']:,} "
                    f"(ttr {crash['time_to_recover']:,} requests)"
                )
            elif crash["restart_at"] is not None:
                line += ", not recovered by trace end"
            lines.append(line)
    serve = payload.get("serve")
    if serve is not None:
        lines.append(
            f"  serve ({serve['arrivals']} arrivals): "
            f"offered {serve['offered_rate']:,.0f} req/s, achieved "
            f"{serve['achieved_rate']:,.0f} req/s, completed "
            f"{serve['completed']:,} of {serve['requests']:,}"
        )
        latency = serve["latency_ms"]
        lines.append(
            f"    latency ms: p50 {latency['p50']:.2f}  "
            f"p95 {latency['p95']:.2f}  p99 {latency['p99']:.2f}  "
            f"p999 {latency['p999']:.2f}  max {latency['max']:.2f}"
        )
        depths = serve["queue_depth"]["depths"]
        if depths:
            lines.append(
                f"    queue depth: mean "
                f"{sum(depths) / len(depths):.1f}, max {max(depths)}"
            )
        serve_faults = serve.get("faults")
        if serve_faults is not None:
            timeline = serve_faults.get("latency_timeline", [])
            timed = [w for w in timeline if w["completed"]]
            if timed:
                worst = max(timed, key=lambda w: w["p99_ms"])
                lines.append(
                    f"    p99 timeline: worst window "
                    f"[{worst['start']:,}, {worst['stop']:,}) at "
                    f"{worst['p99_ms']:.2f} ms, final window "
                    f"{timed[-1]['p99_ms']:.2f} ms"
                )
    return lines


@dataclass
class ClusterReport:
    """Aggregated view of a cluster replay.

    ``imbalance`` is the max/mean per-shard request ratio (1.0 is a
    perfectly balanced cluster); ``hot_shards`` lists shards whose load
    exceeds :data:`HOT_FACTOR` times the mean.
    """

    shards: int
    replication: int
    hit_rates: Dict[str, float]
    overall_hit_rate: float
    requests: int
    gets: int
    shard_loads: List[ShardLoad]
    imbalance: float
    hot_shards: List[int]
    #: :meth:`repro.cluster.rebalance.Rebalancer.to_dict` payload (config,
    #: transfer counts, per-epoch allocation timeline); None when the
    #: replay used the static split.
    rebalance: Optional[Dict[str, Any]] = None
    #: :meth:`repro.cluster.faults.FaultInjector.to_dict` payload
    #: (schedule, per-crash downtime/recovery metrics, hit-rate
    #: timeline); None when no fault injector was attached.
    faults: Optional[Dict[str, Any]] = None
    #: :meth:`repro.serve.ServeReport.to_dict` payload (offered/achieved
    #: rate, latency percentiles, queue-depth timeline);
    #: None when the replay was offline (no ``serve`` block).
    serve: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "replication": self.replication,
            "hit_rates": dict(self.hit_rates),
            "overall_hit_rate": self.overall_hit_rate,
            "requests": self.requests,
            "gets": self.gets,
            "shard_loads": [load.to_dict() for load in self.shard_loads],
            "imbalance": self.imbalance,
            "hot_shards": list(self.hot_shards),
            "rebalance": (
                dict(self.rebalance) if self.rebalance is not None else None
            ),
            "faults": (
                dict(self.faults) if self.faults is not None else None
            ),
            "serve": (
                dict(self.serve) if self.serve is not None else None
            ),
        }


class Cluster:
    """N shard servers, a hash ring, and aggregate reporting.

    Engines are registered per app through :meth:`add_app`, which splits
    the app's total budget evenly across shards (each shard is an
    independent server; no shard knows the others exist, per the paper's
    no-coordination design).
    """

    def __init__(
        self,
        config: ClusterConfig,
        geometry: Optional[SlabGeometry] = None,
    ) -> None:
        self.config = config
        self.geometry = geometry or SlabGeometry.default()
        #: Replica count (ClusterConfig already clamps it to the shard
        #: count).
        self.replication = config.replication
        self.ring = HashRing(
            config.shards,
            seed=config.hash_seed,
            virtual_nodes=config.virtual_nodes,
        )
        self.router = Router(self.ring, config.replication)
        self.servers = [
            CacheServer(self.geometry) for _ in range(config.shards)
        ]
        #: Optional online rebalancer (see :meth:`attach_rebalancer`).
        self.rebalancer = None
        #: Optional fault injector (see :meth:`attach_faults`).
        self.fault_injector = None
        #: Per-app engine factories captured by :meth:`add_app`; the
        #: fault layer rebuilds restarted shards cold through these.
        self.engine_factories: Dict[str, EngineFactory] = {}
        #: Per-app per-shard budget shares captured by :meth:`add_app`
        #: (insertion order = registration order); the parallel replay's
        #: workers rebuild their shards' engines from these.
        self.app_shares: Dict[str, float] = {}
        #: Per-shard used bytes the workers of a parallel replay reported
        #: (the parent's engines never saw a request); consulted by
        #: :meth:`report` / :meth:`memory_in_use`.
        self._worker_memory: Optional[Dict[int, float]] = None
        #: The live clock: requests served through :meth:`process_batch`
        #: so far. Epochs and fault offsets count on it exactly as they
        #: count trace positions in an offline replay.
        self.object_requests = 0

    @property
    def shards(self) -> int:
        return len(self.servers)

    # ------------------------------------------------------------------

    def add_app(
        self, app: str, budget_bytes: float, make_engine: EngineFactory
    ) -> None:
        """Register a tenant on every shard with ``budget_bytes/shards``
        each; ``make_engine(shard, share)`` builds each shard's engine."""
        share = budget_bytes / len(self.servers)
        for shard, server in enumerate(self.servers):
            engine = make_engine(shard, share)
            if engine.app != app:
                raise ConfigurationError(
                    f"engine factory for app {app!r} built an engine "
                    f"named {engine.app!r}"
                )
            server.add_app(engine)
        self.engine_factories[app] = make_engine
        self.app_shares[app] = share

    # -- shard budgets (the canonical resize seam) ----------------------

    def shard_budget(self, shard: int) -> float:
        """One shard's reservation: the sum of its engines' budgets."""
        return sum(
            engine.budget_bytes
            for engine in self.servers[shard].engines.values()
        )

    def scale_shard_budget(self, shard: int, target: float) -> int:
        """Proportionally scale ``shard``'s engine budgets to ``target``.

        Every budget move -- rebalance transfers and fault-time
        drains/reclaims -- goes through here. Returns the evictions the
        shrink enforced (callers charge them to their own counters).
        """
        return scale_engine_budgets(
            self.servers[shard].engines.values(), target
        )

    def restart_shard(
        self, shard: int, budgets: Dict[str, float]
    ) -> None:
        """Cold-restart ``shard``: factory-fresh engines at ``budgets``
        (app -> bytes). A zero-budget engine was fully drained at crash
        time, so it is already cold and stays in place."""
        server = self.servers[shard]
        for app, budget in budgets.items():
            if budget > 0:
                server.replace_app(self.engine_factories[app](shard, budget))

    def attach_rebalancer(self, rebalancer) -> None:
        """Install a :class:`~repro.cluster.rebalance.Rebalancer`; the
        window driver then stops at every epoch multiple and the
        cluster report grows a ``rebalance`` section."""
        self.rebalancer = rebalancer

    def attach_faults(self, injector) -> None:
        """Install a :class:`~repro.cluster.faults.FaultInjector`; once
        armed, the window driver stops at its offsets and the cluster
        report grows a ``faults`` section."""
        self.fault_injector = injector

    def live_mask(self) -> List[bool]:
        """Per-shard liveness (all live without a fault injector)."""
        if self.fault_injector is not None:
            return self.fault_injector.live
        return [True] * len(self.servers)

    # ------------------------------------------------------------------

    def _route_mask(self) -> Tuple[bool, ...]:
        """The live mask routing sees.

        ``failover`` masks crashed shards out of the successor walk;
        ``miss-through`` (and no injector at all) keeps the all-live
        walk and lets dead shards swallow their requests as tagged
        misses.
        """
        injector = self.fault_injector
        if injector is not None and injector.policy == "failover":
            return tuple(bool(flag) for flag in injector.live)
        return self.router.all_live

    def route(self, key: object) -> int:
        """Shard index serving the next request for ``key``.

        With ``replication == 1`` this is the ring's primary (the next
        live successor under ``failover``); otherwise the key's requests
        round-robin across its replica set.
        """
        return self.router.route(key, self._route_mask())

    def _barrier(
        self,
        offset: int,
        injector=None,
        totals: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Run the hooks due once ``offset`` requests have been handled.

        The only place the barrier order is written: sample the fault
        metrics, then the rebalance epoch (if ``offset`` is a multiple
        of ``epoch_requests``), then the fault events pinned to
        ``offset`` -- so an epoch sees the pre-event live set and a
        crash drains budgets the epoch just moved. ``injector`` is the
        fault injector while its schedule still has a barrier at or
        after ``offset``, else ``None``. A sample inside a window passes
        the cluster's ``(GET hits, GETs)`` at ``offset`` as ``totals``
        (no epoch or event falls there); at a window's end the sample
        reads the registries.
        """
        if injector is not None:
            injector.on_barrier(offset, totals)
        rebalancer = self.rebalancer
        if rebalancer is not None:
            epoch = rebalancer.config.epoch_requests
            if epoch and offset % epoch == 0:
                rebalancer.on_epoch()
        if injector is not None:
            injector.apply_events(offset)

    def _drive(
        self,
        clock: int,
        count: int,
        replay_window: ReplayWindow,
    ) -> None:
        """The one window loop: run ``count`` requests, the first of
        them at clock ``clock``.

        Each window runs up to the next barrier after the clock (the
        rebalancer's next epoch multiple or the armed injector's next
        event or end, whichever is first) or to the last request.
        ``replay_window(start, stop, mask, dead, cuts)`` serves rows
        ``[start, stop)`` routed under the live ``mask``, with the
        ``dead`` shards (``miss-through``) tallied without an engine --
        per window, because the barrier before it may have flipped the
        live set -- and returns, for each of the ascending row offsets
        ``cuts``, the ``(GET hits, GETs)`` of the rows from the cut
        before it (or ``start``) up to it. The cuts are the injector's
        sampling grid offsets inside the window; each fires
        :meth:`_barrier` with the cluster's totals there, in offset
        order, before the window's own barrier.
        """
        injector = self.fault_injector
        rebalancer = self.rebalancer
        epoch = rebalancer.config.epoch_requests if rebalancer is not None else 0
        limit = clock + count
        row = 0
        while clock < limit:
            fault_stop = (
                injector.next_barrier(clock) if injector is not None else None
            )
            epoch_stop = clock - clock % epoch + epoch if epoch else None
            stop = min(
                s for s in (limit, fault_stop, epoch_stop) if s is not None
            )
            stop_row = row + stop - clock
            barrier = stop in (fault_stop, epoch_stop)
            dead: Collection[int] = ()
            cuts: Sequence[int] = ()
            if injector is not None:
                dead = injector.dead_shards()
                # A live batch that ends between barriers on a grid
                # offset samples there, as a cut: no barrier will.
                cuts = injector.samples_between(
                    clock, stop if barrier else stop + 1
                )
            if cuts:
                hits, gets = injector.totals()
            tallies = replay_window(
                row,
                stop_row,
                self._route_mask(),
                dead,
                [row + cut - clock for cut in cuts],
            )
            for cut, (cut_hits, cut_gets) in zip(cuts, tallies):
                hits += cut_hits
                gets += cut_gets
                self._barrier(cut, injector, (hits, gets))
            clock, row = stop, stop_row
            if barrier:
                self._barrier(
                    stop, injector if fault_stop is not None else None
                )

    # -- the live batch entry point ------------------------------------

    def process_batch(
        self,
        keys: List[str],
        ops: List[int],
        value_sizes: List[int],
        apps: List[str],
    ) -> List[int]:
        """Serve a batch of object-API requests.

        The serving hot path: :meth:`_drive` from the live clock
        (``object_requests``) over this batch. Each window routes its
        rows in request order through one :meth:`Router.route_keys
        <repro.cluster.routing.Router.route_keys>` loop (replica turns
        advance as they would one request at a time), buckets them into
        (shard, app) runs, and hands each run to its engine's
        ``process_run`` in the order the replay kernel runs and flushes
        them; the codes go back to request order. A server's drain is a
        few to a few hundred rows, where the kernel's sort and NumPy
        gathers cost more than they save, so this path builds no
        columns. Returns one outcome code per request
        (:func:`repro.cache.stats.pack_outcome`), in order.

        Bit-identical to handling the requests one at a time
        (``tests/cluster/reference.py::process_reference`` is that walk)
        -- down to per-shard per-(app, class) counters, replica
        round-robin state, and rebalance epochs and fault barriers
        landing mid-batch; the property tests pin the parity down.

        The batch is what the wire service sends: four equal-length
        lists of ``str`` keys, op codes (``OP_GET`` / ``OP_SET`` /
        ``OP_DELETE``), value sizes ``>= 0`` and app names. A key's size
        is ``len(key)``, the rule the service's too-large check uses, so
        a trace whose key sizes are not its keys' lengths (Facebook
        ETC's) replays only offline, through :meth:`replay_compiled`.
        Each request is classified once, inline, by the
        :class:`~repro.cache.slabs.SlabGeometry` rule a compiled trace's
        columns come from (``bisect_left`` over ``chunk_sizes``;
        ``item_bytes`` is key + value). Every row's app and item size is
        checked before the first one is served, so a batch with an
        unknown app (:class:`ConfigurationError`) or an item past the
        largest chunk (:class:`CacheError`) changes nothing. No per-size
        memo: item sizes come from clients.
        """
        count = len(keys)
        engines = self.servers[0].engines
        chunks = self.geometry.chunk_sizes
        largest = chunks[-1]
        app_ids: Dict[str, int] = {}
        app_column: List[int] = []
        rows: List[Row] = []
        for key, op, value, app in zip(keys, ops, value_sizes, apps):
            app_id = app_ids.get(app)
            if app_id is None:
                if app not in engines:
                    raise ConfigurationError(f"request for unknown app {app!r}")
                app_id = app_ids[app] = len(app_ids)
            app_column.append(app_id)
            item_bytes = len(key) + value
            total = item_bytes + ITEM_OVERHEAD_BYTES
            if total > largest:
                raise CacheError(
                    f"item of {total}B exceeds largest chunk {largest}B"
                )
            slab_class = bisect_left(chunks, total)
            rows.append((key, op, slab_class, item_bytes))
        app_names = list(app_ids)
        outcomes = [0] * count
        num_apps = len(app_names)
        servers = self.servers
        route_keys = self.router.route_keys

        def replay_window(start, stop, mask, dead, cuts):
            members: Dict[int, List[int]] = {}
            shards = route_keys(keys[start:stop], mask)
            for i, shard in enumerate(shards, start):
                run = shard * num_apps + app_column[i]
                indices = members.get(run)
                if indices is None:
                    members[run] = [i]
                else:
                    indices.append(i)
            runs: List[Run] = []
            for run in sorted(members):
                shard, app_id = divmod(run, num_apps)
                indices = members[run]
                if shard in dead:
                    codes = [(OUTCOME_DEAD << 2) | ops[i] for i in indices]
                else:
                    # Resolved per window: a restart at the barrier
                    # before it swaps in fresh engines.
                    codes = servers[shard].engines[app_names[app_id]].process_run(
                        map(rows.__getitem__, indices)
                    )
                counts: Dict[int, int] = {}
                for i, code in zip(indices, codes):
                    outcomes[i] = code >> 2
                    counts[code] = counts.get(code, 0) + 1
                runs.append((shard, app_id, counts))
            flush_runs(servers, app_names, runs)
            if not cuts:
                return []
            packed = np.array(outcomes[start:stop]) << 2 | np.array(ops[start:stop])
            return cut_tallies(packed, np.arange(start, stop), cuts)

        self._drive(self.object_requests, count, replay_window)
        self.object_requests += count
        return outcomes

    def replay_compiled(
        self, trace, plan: Optional[RoutingPlan] = None
    ) -> StatsRegistry:
        """Replay a compiled trace across the shards.

        Per-shard stats land in each shard server's own registry; the
        returned registry is the cluster-wide aggregate. This is
        :meth:`_drive` from clock 0 over the whole trace, whatever the
        shard count (the parity tests pin a one-shard cluster to
        :meth:`CacheServer.replay_compiled`):

        * **routing** -- a :class:`~repro.cluster.routing.RoutingPlan`
          (built here, or passed in by callers that cache plans) assigns
          every request its shard up front; under ``failover`` with a
          shard down :class:`~repro.cluster.routing.TraceColumns`
          re-derives the column for the live set, while ``miss-through``
          keeps the plan and marks the down shards ``dead``;
        * **executor** -- the one place it is picked: in-process, or with
          ``parallel_workers >= 2`` on more than one shard
          :func:`~repro.cluster.parallel.replay_parallel`, which needs a
          fresh cluster with no barrier hooks (a rebalancer or fault
          injector raises :class:`ConfigurationError` here, before
          anything changes);
        * **faults** -- an attached injector is armed for
          ``len(trace)`` requests and disarmed afterwards.

        Shards share no state between barriers, so the result is
        bit-identical to replaying one request at a time
        (``tests/cluster/reference.py`` is that loop).
        """
        injector = self.fault_injector
        parallel = self.config.parallel_workers > 1 and self.shards > 1
        if parallel and (injector is not None or self.rebalancer is not None):
            raise ConfigurationError(
                "parallel_workers replays only a cluster without rebalance "
                "or faults; set parallel_workers to 0 to replay it in-process"
            )
        # Every shard has the same ladder and tenants as shard 0.
        self.servers[0].check_replayable(trace)
        plan = self._resolve_plan(trace, plan)
        if parallel:
            from repro.cluster.parallel import replay_parallel

            self._worker_memory = replay_parallel(self, trace, plan)
            return self.aggregate_stats()
        routes = TraceColumns(self.router, trace, plan)
        app_table = trace.app_table
        columns = trace.replay_columns()

        def replay_window(start, stop, mask, dead, cuts):
            runs, tallies = replay_runs(
                self.servers,
                app_table,
                columns,
                routes.shard_ids(mask),
                trace.app_ids,
                start,
                stop,
                dead=dead,
                cuts=cuts,
            )
            flush_runs(self.servers, app_table, runs)
            return tallies

        try:
            if injector is not None:
                injector.begin(len(trace))
            self._drive(0, len(trace), replay_window)
        finally:
            if injector is not None:
                injector.finish(len(trace))
        return self.aggregate_stats()

    def _resolve_plan(self, trace, plan: Optional[RoutingPlan]) -> RoutingPlan:
        """Validate a caller-supplied plan, or build one for this replay.

        Building here goes straight through
        :func:`~repro.cluster.routing.build_routing_plan` -- no cache
        side effects, so ad-hoc :class:`Cluster` users stay hermetic;
        the scenario layer passes cached plans in.
        """
        if plan is None:
            return build_routing_plan(trace, self.ring, self.replication)
        if len(plan) != len(trace) or not plan.matches_ring(
            self.ring, self.replication
        ):
            raise ConfigurationError(
                f"routing plan mismatch: plan covers {len(plan)} requests "
                f"on {plan.shards} shard(s) (hash_seed {plan.hash_seed}, "
                f"{plan.virtual_nodes} vnodes, replication "
                f"{plan.replication}); replay needs {len(trace)} requests "
                f"on this cluster's ring ({len(self.servers)} shard(s), "
                f"hash_seed {self.ring.seed}, {self.ring.virtual_nodes} "
                f"vnodes, replication {self.replication})"
            )
        return plan

    # ------------------------------------------------------------------

    def aggregate_stats(self) -> StatsRegistry:
        """Cluster-wide registry: every shard's counters merged."""
        merged = StatsRegistry()
        for server in self.servers:
            merged.total.merge(server.stats.total)
            for app, counter in server.stats.by_app.items():
                merged.by_app.setdefault(app, HitMissCounter()).merge(counter)
            for key, counter in server.stats.by_app_class.items():
                merged.by_app_class.setdefault(
                    key, HitMissCounter()
                ).merge(counter)
        return merged

    def report(self, stats: Optional[StatsRegistry] = None) -> ClusterReport:
        """Aggregate hit rates plus per-shard load and balance metrics.

        ``stats`` lets callers that already hold the merged registry
        (:meth:`replay_compiled` returns it) skip a second
        :meth:`aggregate_stats` pass over every shard's per-(app, class)
        counters; omitted, the report merges fresh.
        """
        merged = stats if stats is not None else self.aggregate_stats()
        loads = []
        for shard, server in enumerate(self.servers):
            total = server.stats.total
            loads.append(
                ShardLoad(
                    shard=shard,
                    requests=total.gets + total.sets,
                    gets=total.gets,
                    hit_rate=total.hit_rate(),
                    memory_used_bytes=self.shard_memory_in_use(shard),
                )
            )
        counts = [load.requests for load in loads]
        mean = sum(counts) / len(counts) if counts else 0.0
        imbalance = max(counts) / mean if mean > 0 else 1.0
        hot_shards = [
            load.shard
            for load in loads
            if mean > 0 and load.requests > HOT_FACTOR * mean
        ]
        return ClusterReport(
            shards=len(self.servers),
            replication=self.replication,
            hit_rates={
                app: merged.app_hit_rate(app)
                for app in sorted(merged.by_app)
            },
            overall_hit_rate=merged.total.hit_rate(),
            requests=merged.total.gets + merged.total.sets,
            gets=merged.total.gets,
            shard_loads=loads,
            imbalance=imbalance,
            hot_shards=hot_shards,
            rebalance=(
                self.rebalancer.to_dict()
                if self.rebalancer is not None
                else None
            ),
            faults=(
                self.fault_injector.to_dict()
                if self.fault_injector is not None
                else None
            ),
        )

    # ------------------------------------------------------------------

    def shard_memory_in_use(self, shard: int) -> float:
        """Used bytes on one shard; after a parallel replay this is the
        owning worker's figure (the parent's engines never saw an
        item)."""
        if self._worker_memory is not None:
            return self._worker_memory[shard]
        return self.servers[shard].memory_in_use()

    def memory_in_use(self) -> float:
        return sum(
            self.shard_memory_in_use(shard)
            for shard in range(len(self.servers))
        )

    def memory_reserved(self) -> float:
        return sum(server.memory_reserved() for server in self.servers)
