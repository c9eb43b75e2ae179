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
  the armed fault injector's next offset -- route the window, execute
  it (in-process kernel or worker pool), run :meth:`Cluster._barrier`.
  The offline replay drives a whole trace from clock 0; the live batch
  path drives one batch from the requests served so far. Same loop, so
  a seed and a schedule fix where every hook fires whoever is driving.

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

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.engines import Engine
from repro.cache.kernel import ReplayColumns, flush_runs, replay_runs
from repro.cache.server import CacheServer
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import OP_CODES, HitMissCounter, StatsRegistry
from repro.common.errors import ConfigurationError
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


def scale_engine_budgets(engines, target: float) -> int:
    """Proportionally scale a shard's engine budgets to sum to ``target``.

    The single canonical implementation behind every shard resize --
    rebalance transfers, fault-time drains and reclaims, serial or
    parallel -- so the budget float arithmetic is identical everywhere
    it runs (the parallel replay re-executes it in the owning worker and
    relies on exact agreement with the parent's bookkeeping copy).
    Proportional scaling keeps the apps' relative shares on the shard
    intact; only the shard's total moves, mirroring how an operator
    resizes a memcache instance rather than one tenant on it. Returns
    the evictions the shrink enforced.
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

    ``parallel_workers`` (default ``0``) fans the replay's per-shard
    runs out across that many worker processes, each started with the
    trace's columns (see :mod:`repro.cluster.parallel`). ``0`` and ``1`` replay
    in-process; values above the shard count clamp to it, and a
    one-shard cluster always replays in-process. The two executors run
    the same kernel and are bit-identical -- the property tests pin
    that down -- so this knob trades nothing but processes for
    wall-clock.
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

    The single formatter behind :meth:`ClusterReport.render` and
    :meth:`repro.sim.ScenarioResult.render`, so the two outputs cannot
    drift.
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
            f"  serve ({serve['arrivals']} arrivals, backpressure "
            f"{serve['backpressure']}, {serve['connections']} conn): "
            f"offered {serve['offered_rate']:,.0f} req/s, achieved "
            f"{serve['achieved_rate']:,.0f} req/s, shed {serve['shed']:,} "
            f"of {serve['requests']:,}"
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
        retries = serve.get("retries", 0)
        hedges = serve.get("hedges", 0)
        timeouts = serve.get("timeouts", 0)
        shed_expired = serve.get("shed_expired", 0)
        if retries or hedges or timeouts or shed_expired:
            lines.append(
                f"    retries {retries:,}, hedges {hedges:,}, "
                f"timeouts {timeouts:,}, expired-in-queue "
                f"{shed_expired:,}"
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
    exceeds ``hot_factor`` times the mean.
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
    #: rate, latency percentiles, shed count, queue-depth timeline);
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

    def render(self) -> str:
        """Per-shard loads plus the balance summary."""
        return "\n".join(render_cluster_report(self.to_dict()))


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
        #: Live :class:`~repro.cluster.parallel.WorkerPool` while a
        #: parallel replay is driving; :meth:`scale_shard_budget` and
        #: :meth:`restart_shard` forward through it to the owning worker.
        self._parallel = None
        #: Per-shard used-bytes reported by the workers at the end of a
        #: parallel replay (the parent's engines stay empty mirrors);
        #: consulted by :meth:`report` / :meth:`memory_in_use`.
        self._parallel_memory: Optional[Dict[int, float]] = None
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
        During a parallel replay the parent's engines are empty
        bookkeeping mirrors: the same arithmetic runs both here (so
        parent-side signals, floors, and reports see the right budgets)
        and in the owning worker, whose engines hold the actual items
        and therefore report the real eviction count.
        """
        evictions = scale_engine_budgets(
            self.servers[shard].engines.values(), target
        )
        if self._parallel is not None:
            evictions += self._parallel.scale_shard(shard, target)
        return evictions

    def restart_shard(
        self, shard: int, budgets: Dict[str, float]
    ) -> None:
        """Cold-restart ``shard``: factory-fresh engines at ``budgets``
        (app -> bytes). A zero-budget engine was fully drained at crash
        time, so it is already cold and stays in place. In a parallel
        replay the owning worker rebuilds the same engines from the same
        factories."""
        server = self.servers[shard]
        for app, budget in budgets.items():
            if budget > 0:
                server.replace_app(self.engine_factories[app](shard, budget))
        if self._parallel is not None:
            self._parallel.restart_shard(shard, budgets)

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

    def _barrier(self, offset: int, injector=None) -> None:
        """Run the hooks due once ``offset`` requests have been handled.

        The only place the barrier order is written: sample the fault
        metrics, then the rebalance epoch (if ``offset`` is a multiple
        of ``epoch_requests``), then the fault events pinned to
        ``offset`` -- so an epoch sees the pre-event live set and a
        crash drains budgets the epoch just moved. ``injector`` is the
        fault injector while its schedule still has a barrier at or
        after ``offset``, else ``None``.
        """
        if injector is not None:
            injector.on_barrier(offset)
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
        app_table: Sequence[str],
        columns: ReplayColumns,
        app_column: np.ndarray,
        route_window: Callable[[int, int, Tuple[bool, ...]], np.ndarray],
        out: Optional[np.ndarray] = None,
    ) -> None:
        """The one window loop: run the ``count`` requests in
        ``columns``, the first of them at clock ``clock``.

        Each window runs up to the next barrier after the clock (the
        rebalancer's next epoch multiple or the armed injector's next
        offset, whichever is first) or to the last request.
        ``route_window(start, stop, mask)`` returns a shard column whose
        rows ``[start, stop)`` are routed under ``mask`` -- per window,
        because the barrier before it may have flipped the live mask.
        """
        injector = self.fault_injector
        rebalancer = self.rebalancer
        epoch = rebalancer.config.epoch_requests if rebalancer is not None else 0
        pool = self._parallel
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
            shard_column = route_window(row, stop_row, self._route_mask())
            dead = injector.dead_shards() if injector is not None else ()
            if pool is not None:
                pool.replay_window(row, stop_row, shard_column, dead)
            else:
                runs = replay_runs(
                    self.servers,
                    app_table,
                    columns,
                    shard_column,
                    app_column,
                    row,
                    stop_row,
                    dead=dead,
                    out=out,
                )
                flush_runs(self.servers, app_table, runs)
            clock, row = stop, stop_row
            if stop in (fault_stop, epoch_stop):
                self._barrier(
                    stop, injector if fault_stop is not None else None
                )

    # -- plan-backed batch object API ----------------------------------

    def process_batch(
        self,
        keys: Sequence[object],
        ops: Union[str, Sequence[object]],
        value_sizes: Union[int, Sequence[int]],
        apps: Union[str, Sequence[str]],
        key_sizes: Union[None, int, Sequence[int]] = None,
    ) -> np.ndarray:
        """Process many object-API requests in one vectorized pass.

        The serving hot path: :meth:`_drive` from the live clock
        (``object_requests``) over this batch, each window routed by
        the router's ``route_batch``. Returns one packed outcome code
        per request (:func:`repro.cache.stats.pack_outcome`), in order.

        Bit-identical to handling the requests one at a time
        (``tests/cluster/reference.py::process_reference`` is that walk)
        -- down to per-shard per-(app, class) counters, replica
        round-robin state, and rebalance epochs and fault barriers
        landing mid-batch; the property tests pin the parity down.
        Per-request observers never fire.

        ``ops`` entries are ``"get"``/``"set"``/``"delete"`` or their
        integer codes; ``ops``, ``value_sizes``, ``apps`` and
        ``key_sizes`` may each be a scalar broadcast across the batch.
        ``key_sizes`` defaults to each key's string length. The sizes
        become ``process_fast`` rows through
        :meth:`~repro.cache.slabs.SlabGeometry.rows`, exactly as a
        compiled trace's do (``item_bytes`` is key + value).
        """
        count = len(keys)
        op_column = self._batch_ops(ops, count)
        app_names, app_column = self._batch_apps(apps, count)
        engines = self.servers[0].engines
        for name in app_names:
            if name not in engines:
                raise ConfigurationError(f"request for unknown app {name!r}")
        class_column, chunk_column, item_column = self._batch_classes(
            keys, value_sizes, key_sizes, count
        )
        shard_column = np.empty(count, dtype=np.int32)
        out = np.empty(count, dtype=np.int64)
        columns = (
            np.fromiter(keys, dtype=object, count=count),
            op_column,
            class_column,
            chunk_column,
            item_column,
        )

        def route_window(start, stop, mask):
            # The router's per-key turn counters carry the round-robin
            # sequence from one window (and one batch) to the next.
            shard_column[start:stop] = self.router.route_batch(
                keys[start:stop], mask
            )
            return shard_column

        self._drive(
            self.object_requests,
            count,
            app_names,
            columns,
            app_column,
            route_window,
            out,
        )
        self.object_requests += count
        return out

    def _batch_ops(
        self, ops: Union[str, Sequence[object]], count: int
    ) -> np.ndarray:
        if isinstance(ops, (str, int)):
            ops = [ops] * count
        if len(ops) != count:
            raise ConfigurationError(
                f"process_batch got {count} key(s) but {len(ops)} op(s)"
            )
        column = np.empty(count, dtype=np.int64)
        for i, op in enumerate(ops):
            if isinstance(op, str):
                code = OP_CODES.get(op)
                if code is None:
                    raise ConfigurationError(f"unknown op {op!r}")
            else:
                code = int(op)
                if not 0 <= code < len(OP_CODES):
                    raise ConfigurationError(f"unknown op code {op!r}")
            column[i] = code
        return column

    def _batch_apps(
        self, apps: Union[str, Sequence[str]], count: int
    ) -> Tuple[List[str], np.ndarray]:
        if isinstance(apps, str):
            return [apps], np.zeros(count, dtype=np.int64)
        if len(apps) != count:
            raise ConfigurationError(
                f"process_batch got {count} key(s) but {len(apps)} app(s)"
            )
        ids: Dict[str, int] = {}
        names: List[str] = []
        column = np.empty(count, dtype=np.int64)
        for i, app in enumerate(apps):
            app_id = ids.get(app)
            if app_id is None:
                app_id = ids[app] = len(names)
                names.append(app)
            column[i] = app_id
        return names, column

    def _batch_classes(
        self,
        keys: Sequence[object],
        value_sizes: Union[int, Sequence[int]],
        key_sizes: Union[None, int, Sequence[int]],
        count: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The batch's ``(slab_classes, chunk_bytes, item_bytes)``
        columns. Checks the caller's size columns (broadcast, length,
        no negative value size); the classification itself is
        :meth:`~repro.cache.slabs.SlabGeometry.rows`, the rule
        :class:`~repro.workloads.compiled.CompiledTrace` columns come
        from, so live and offline rows are equal by construction."""
        value_column = np.asarray(value_sizes, dtype=np.int64)
        if value_column.ndim == 0:
            value_column = np.full(count, int(value_column), dtype=np.int64)
        elif len(value_column) != count:
            raise ConfigurationError(
                f"process_batch got {count} key(s) but "
                f"{len(value_column)} value size(s)"
            )
        if np.any(value_column < 0):
            raise ConfigurationError("value sizes must be >= 0")
        if key_sizes is None:
            key_column = np.fromiter(
                (len(str(key)) for key in keys), dtype=np.int64, count=count
            )
        else:
            key_column = np.asarray(key_sizes, dtype=np.int64)
            if key_column.ndim == 0:
                key_column = np.full(count, int(key_column), dtype=np.int64)
            elif len(key_column) != count:
                raise ConfigurationError(
                    f"process_batch got {count} key(s) but "
                    f"{len(key_column)} key size(s)"
                )
        return self.geometry.rows(key_column, value_column)

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
        * **executor** -- in-process or, with ``parallel_workers >= 2``,
          a :class:`~repro.cluster.parallel.WorkerPool`;
        * **faults** -- an attached injector is armed for
          ``len(trace)`` requests and disarmed afterwards.

        Shards share no state between barriers, so the result is
        bit-identical to replaying one request at a time
        (``tests/cluster/reference.py`` is that loop).
        """
        injector = self.fault_injector
        # Every shard has the same ladder and tenants as shard 0.
        self.servers[0].check_replayable(trace)
        plan = self._resolve_plan(trace, plan)
        routes = TraceColumns(self.router, trace, plan)
        pool = None
        if self.config.parallel_workers > 1 and self.shards > 1:
            from repro.cluster.parallel import WorkerPool

            pool = self._parallel = WorkerPool(self, trace, plan)
            self._parallel_memory = None
        try:
            # The pool is up before the injector begins: an offset-0
            # crash already moves budgets, and those moves must reach
            # the workers' engines too.
            if injector is not None:
                injector.begin(len(trace))
            self._drive(
                0,
                len(trace),
                trace.app_table,
                trace.replay_columns(),
                trace.app_ids,
                lambda start, stop, mask: routes.shard_ids(mask),
            )
            if pool is not None:
                self._parallel_memory = pool.finish()
        finally:
            if injector is not None:
                injector.finish(len(trace))
            if pool is not None:
                self._parallel = None
                pool.shutdown()
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

    def report(
        self,
        hot_factor: float = 1.5,
        stats: Optional[StatsRegistry] = None,
    ) -> ClusterReport:
        """Aggregate hit rates plus per-shard load and balance metrics.

        ``stats`` lets callers that already hold the merged registry
        (:meth:`replay_compiled` returns it) skip a second
        :meth:`aggregate_stats` pass over every shard's per-(app, class)
        counters; omitted, the report merges fresh.
        """
        if hot_factor <= 0:
            raise ConfigurationError(
                f"hot_factor must be positive, got {hot_factor}"
            )
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
            if mean > 0 and load.requests > hot_factor * mean
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
        owning worker's figure (the parent's engines are empty mirrors
        whose budgets are right but whose queues never saw an item)."""
        if self._parallel_memory is not None:
            used = self._parallel_memory.get(shard)
            if used is not None:
                return used
        return self.servers[shard].memory_in_use()

    def memory_in_use(self) -> float:
        return sum(
            self.shard_memory_in_use(shard)
            for shard in range(len(self.servers))
        )

    def memory_reserved(self) -> float:
        return sum(server.memory_reserved() for server in self.servers)
