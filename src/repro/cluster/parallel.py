"""The worker-pool executor: replay windows across processes.

The cluster's window driver (``Cluster._drive``) has two executors.
In-process it calls the replay kernel
(:func:`repro.cache.kernel.replay_runs`) directly; with
``cluster.parallel_workers >= 2`` an offline replay hands each window to
the :class:`WorkerPool` here, whose workers run the *same* kernel restricted
to the shards they own. Shards are independent between barriers (paper
section 4.3), so the fan-out changes nothing but wall-clock:

* The trace's replay columns and the routing plan's ``shard_ids`` go
  into one :class:`~repro.workloads.compiled.SharedTraceColumns`
  segment; workers map the numeric columns zero-copy and rebuild only
  the interned key strings (once, from the shared utf-8 blob).
* Each worker owns a contiguous block of shards and builds those
  shards' engines cold through the cluster's registered factories.
* :meth:`WorkerPool.replay_window` is the synchronization point: it
  returns once every worker's run tallies for the window have been
  flushed into the parent's shard registries, so the driver's barrier
  (sample, rebalance epoch, fault events) reads exactly the state the
  in-process executor would have left.

The parent's engines never process a request: they are empty
*bookkeeping mirrors*. Budget moves go through
:meth:`~repro.cluster.Cluster.scale_shard_budget`, which runs the same
proportional arithmetic on the parent's empty engines (so signals,
floors, and reports see the right budgets -- ``grow_budget`` and
``shrink_budget`` touch only ``budget_bytes`` floats, identical whether
the queues hold items or not) and forwards the command to the owning
worker, whose engines hold the actual items and report the real
eviction counts. A routing column other than the plan's (``failover``
with a shard down) reaches workers through the segment's
parent-writable scratch column, written strictly before the window that
uses it.
"""


from __future__ import annotations

import traceback
from typing import Any, Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.kernel import Run, flush_runs, replay_runs
from repro.cache.server import CacheServer
from repro.cache.slabs import SlabGeometry
from repro.cluster.cluster import Cluster, scale_engine_budgets
from repro.cluster.routing import RoutingPlan
from repro.common.errors import ConfigurationError
from repro.common.mp import get_mp_context
from repro.workloads.compiled import SharedTraceColumns


def partition_shards(shards: int, workers: int) -> List[List[int]]:
    """Contiguous shard blocks, one per worker, sizes differing by <= 1.

    Contiguous (rather than round-robin) so a worker's runs stay close
    in the sorted composite order; deterministic so reruns assign
    identically.
    """
    workers = max(1, min(workers, shards))
    return [
        block.tolist()
        for block in np.array_split(np.arange(shards), workers)
    ]


def build_shard_servers(
    geometry: SlabGeometry,
    owned: Sequence[int],
    apps: Sequence[Tuple[str, float, Any]],
) -> Dict[int, CacheServer]:
    """Build one worker's servers: cold engines for its shards only.

    ``apps`` is ``(name, per-shard share, factory)`` in registration
    order -- the exact arguments the parent's
    :meth:`~repro.cluster.Cluster.add_app` called its factories with, so
    a worker's engine for shard ``s`` is identical to the one the serial
    replay would have used (factories are deterministic per shard).
    """
    servers: Dict[int, CacheServer] = {}
    for shard in owned:
        server = CacheServer(geometry)
        for app, share, factory in apps:
            engine = factory(shard, share)
            if engine.app != app:
                raise ConfigurationError(
                    f"engine factory for app {app!r} built an engine "
                    f"named {engine.app!r}"
                )
            server.add_app(engine)
        servers[shard] = server
    return servers


def _worker_main(conn, payload: Dict[str, Any]) -> None:
    """Worker process entry: attach columns, build owned shards, serve
    commands until ``finish``. Any exception is shipped back as an
    ``("error", traceback)`` reply instead of dying silently."""
    columns = SharedTraceColumns.attach(payload["meta"])
    try:
        geometry = SlabGeometry(tuple(payload["chunk_sizes"]))
        apps = payload["apps"]
        servers = build_shard_servers(geometry, payload["owned"], apps)
        factories = {app: factory for app, _, factory in apps}
        app_table = payload["app_table"]
        owned = np.zeros(payload["total_shards"], dtype=bool)
        owned[payload["owned"]] = True
        replay_columns = (
            columns.keys(),
            columns.op_codes,
            columns.slab_classes,
            columns.chunk_bytes,
            columns.item_bytes,
        )
        while True:
            message = conn.recv()
            command = message[0]
            try:
                if command == "window":
                    _, start, stop, use_scratch, dead = message
                    shard_column = (
                        columns.scratch_shard_ids
                        if use_scratch
                        else columns.shard_ids
                    )
                    runs = replay_runs(
                        servers,
                        app_table,
                        replay_columns,
                        shard_column,
                        columns.app_ids,
                        start,
                        stop,
                        dead=dead,
                        owned=owned,
                    )
                    conn.send(("ok", runs))
                elif command == "scale":
                    _, shard, target = message
                    conn.send(
                        (
                            "ok",
                            scale_engine_budgets(
                                servers[shard].engines.values(), target
                            ),
                        )
                    )
                elif command == "restart":
                    _, shard, budgets = message
                    server = servers[shard]
                    for app, budget in budgets.items():
                        if budget > 0:
                            server.replace_app(factories[app](shard, budget))
                    conn.send(("ok", None))
                else:  # "finish"
                    conn.send(
                        (
                            "ok",
                            {
                                shard: server.memory_in_use()
                                for shard, server in servers.items()
                            },
                        )
                    )
                    return
            except Exception:
                conn.send(("error", traceback.format_exc()))
                return
    finally:
        columns.close()
        conn.close()


class WorkerPool:
    """The parent's handle on one parallel replay's worker processes.

    Owns the shared-memory segment (created here, unlinked in
    :meth:`shutdown` -- workers only ever attach), one duplex pipe per
    worker, and the shard -> worker ownership map that
    :meth:`scale_shard` / :meth:`restart_shard` route commands with.
    """

    def __init__(
        self,
        cluster: Cluster,
        trace,
        plan: RoutingPlan,
        start_method: Optional[str] = None,
    ) -> None:
        _require_fresh(cluster)
        context = get_mp_context(start_method)
        self.cluster = cluster
        self.app_table = list(trace.app_table)
        self.columns = SharedTraceColumns.export(trace, plan.shard_ids)
        self._plan_column = plan.shard_ids
        self._scratch_source: Optional[np.ndarray] = None
        blocks = partition_shards(
            cluster.shards, cluster.config.parallel_workers
        )
        self.owner: Dict[int, int] = {}
        for worker, owned in enumerate(blocks):
            for shard in owned:
                self.owner[shard] = worker
        apps = [
            (app, cluster.app_shares[app], cluster.engine_factories[app])
            for app in cluster.engine_factories
        ]
        self.connections = []
        self.processes = []
        try:
            for owned in blocks:
                parent_end, child_end = context.Pipe()
                payload = {
                    "meta": self.columns.meta,
                    "chunk_sizes": cluster.geometry.chunk_sizes,
                    "owned": owned,
                    "apps": apps,
                    "app_table": self.app_table,
                    "total_shards": cluster.shards,
                }
                process = context.Process(
                    target=_worker_main,
                    args=(child_end, payload),
                    daemon=True,
                )
                process.start()
                child_end.close()
                self.connections.append(parent_end)
                self.processes.append(process)
        except BaseException:
            self.shutdown()
            raise

    # -- command plumbing ----------------------------------------------

    def _receive(self, worker: int):
        try:
            status, value = self.connections[worker].recv()
        except (EOFError, ConnectionResetError):
            raise RuntimeError(
                f"parallel replay worker {worker} died without replying"
            ) from None
        if status != "ok":
            raise RuntimeError(
                f"parallel replay worker {worker} failed:\n{value}"
            )
        return value

    def _call(self, worker: int, message):
        self.connections[worker].send(message)
        return self._receive(worker)

    # -- replay protocol -----------------------------------------------

    def replay_window(
        self,
        start: int,
        stop: int,
        shard_column: np.ndarray,
        dead: Collection[int] = (),
    ) -> None:
        """Replay ``[start, stop)`` on every worker and flush the merged
        tallies into the parent's registries; returns only when the
        whole window is done and accounted.

        A ``shard_column`` other than the plan's is published through
        the scratch column before the window command is broadcast, so
        every worker observes the full column before touching it. The
        last published column is remembered (by identity -- the router
        hands back the same array while the live set holds), so a run of
        windows under one live set copies once.
        """
        use_scratch = shard_column is not self._plan_column
        if use_scratch and shard_column is not self._scratch_source:
            self.columns.scratch_shard_ids[:] = shard_column
            self._scratch_source = shard_column
        message = ("window", start, stop, use_scratch, tuple(dead))
        for connection in self.connections:
            connection.send(message)
        runs: List[Run] = []
        for worker in range(len(self.connections)):
            runs.extend(self._receive(worker))
        flush_runs(self.cluster.servers, self.app_table, runs)

    def scale_shard(self, shard: int, target: float) -> int:
        """Forward a budget resize to the owning worker; returns the
        evictions its engines enforced."""
        return self._call(self.owner[shard], ("scale", shard, target))

    def restart_shard(self, shard: int, budgets: Dict[str, float]) -> None:
        """Forward a cold restart to the owning worker."""
        self._call(self.owner[shard], ("restart", shard, dict(budgets)))

    def finish(self) -> Dict[int, float]:
        """Collect per-shard used-bytes and let the workers exit."""
        for connection in self.connections:
            connection.send(("finish",))
        memory: Dict[int, float] = {}
        for worker in range(len(self.connections)):
            memory.update(self._receive(worker))
        return memory

    def shutdown(self) -> None:
        """Tear everything down; safe to call twice and mid-error."""
        for connection in self.connections:
            try:
                connection.close()
            except OSError:
                pass
        for process in self.processes:
            process.join(timeout=30)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        self.columns.close()
        self.columns.unlink()


def _require_fresh(cluster: Cluster) -> None:
    """Parallel replays must start cold: workers rebuild engines from
    factories, so state a warm parent holds (items, counters) would be
    silently dropped. Serial replays keep supporting warm reuse."""
    for shard, server in enumerate(cluster.servers):
        total = server.stats.total
        if total.gets or total.sets or server.memory_in_use() > 0:
            raise ConfigurationError(
                f"parallel replay requires a fresh cluster, but shard "
                f"{shard} already holds state; replay serially "
                f"(parallel_workers: 0) to reuse warm engines"
            )
        for app, engine in server.engines.items():
            if engine.budget_bytes != cluster.app_shares.get(app):
                raise ConfigurationError(
                    f"parallel replay requires unscaled budgets, but "
                    f"app {app!r} on shard {shard} holds "
                    f"{engine.budget_bytes} bytes (registered share: "
                    f"{cluster.app_shares.get(app)}); replay serially "
                    f"(parallel_workers: 0)"
                )
