"""The worker-pool executor: replay windows across processes.

The cluster's window driver (``Cluster._drive``) has two executors.
In-process it calls the replay kernel
(:func:`repro.cache.kernel.replay_runs`) directly; with
``cluster.parallel_workers >= 2`` an offline replay hands each window to
the :class:`WorkerPool` here, whose workers run the *same* kernel restricted
to the shards they own. Shards are independent between barriers (paper
section 4.3), so the fan-out changes nothing but wall-clock:

* The trace's replay columns, its ``app_ids`` column and the routing
  plan's ``shard_ids`` -- the arrays the trace and the plan hold, not
  copies -- travel in each worker's start-up arguments: inherited under
  ``fork``, pickled once under ``spawn`` (the engine factories already
  travel this way).
* Each worker owns a contiguous block of shards and builds those
  shards' engines cold through the cluster's registered factories.
* :meth:`WorkerPool.replay_window` is the synchronization point: it
  returns once every worker's run tallies for the window have been
  flushed into the parent's shard registries, so the driver's barrier
  (sample, rebalance epoch, fault events) reads exactly the state the
  in-process executor would have left. A worker's GET hits and GETs
  before each of the window's sample cuts come back with its runs, and
  the parent sums them in worker order.

The parent's engines never process a request: they are empty
*bookkeeping mirrors*. Budget moves go through
:meth:`~repro.cluster.Cluster.scale_shard_budget`, which runs the same
proportional arithmetic on the parent's empty engines (so signals,
floors, and reports see the right budgets -- ``grow_budget`` and
``shrink_budget`` touch only ``budget_bytes`` floats, identical whether
the queues hold items or not) and forwards the command to the owning
worker, whose engines hold the actual items and report the real
eviction counts. A routing column other than the plan's (``failover``
with a shard down) reaches workers as the window's own slice of it,
inside the window message.
"""


from __future__ import annotations

import traceback
from typing import Any, Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.kernel import CutTally, Run, flush_runs, replay_runs
from repro.cache.server import CacheServer
from repro.cache.slabs import SlabGeometry
from repro.cluster.cluster import Cluster, scale_engine_budgets
from repro.cluster.routing import RoutingPlan
from repro.common.errors import ConfigurationError
from repro.common.mp import get_mp_context

_DIED = "parallel replay worker {} died without replying"


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


def _worker_main(conn, parent_ends, payload: Dict[str, Any]) -> None:
    """Worker process entry: build owned shards, serve commands until
    ``finish``. Any exception is shipped back as an ``("error",
    traceback)`` reply instead of dying silently.

    ``parent_ends`` are the parent's pipe ends this process came to
    hold a copy of by being created (``fork`` inherits every open one);
    they are closed first, so that the parent closing *its* copy reads
    as EOF here -- a parent that went away ends the worker quietly.
    """
    for end in parent_ends:
        end.close()
    try:
        apps = payload["apps"]
        servers = build_shard_servers(
            payload["geometry"], payload["owned"], apps
        )
        factories = {app: factory for app, _, factory in apps}
        owned = np.zeros(payload["total_shards"], dtype=bool)
        owned[payload["owned"]] = True
        plan_column = payload["shard_ids"]
        rerouted_column = None
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            command = message[0]
            try:
                if command == "window":
                    _, start, stop, rerouted, dead, cuts = message
                    shard_column = plan_column
                    if rerouted is not None:
                        if rerouted_column is None:
                            rerouted_column = plan_column.copy()
                        rerouted_column[start:stop] = rerouted
                        shard_column = rerouted_column
                    replayed = replay_runs(
                        servers,
                        payload["app_table"],
                        payload["replay_columns"],
                        shard_column,
                        payload["app_ids"],
                        start,
                        stop,
                        dead=dead,
                        owned=owned,
                        cuts=cuts,
                    )
                    conn.send(("ok", replayed))
                elif command == "scale":
                    _, shard, target = message
                    engines = servers[shard].engines.values()
                    conn.send(("ok", scale_engine_budgets(engines, target)))
                elif command == "restart":
                    _, shard, budgets = message
                    server = servers[shard]
                    for app, budget in budgets.items():
                        if budget > 0:
                            server.replace_app(factories[app](shard, budget))
                    conn.send(("ok", None))
                else:  # "finish"
                    used = {
                        shard: server.memory_in_use()
                        for shard, server in servers.items()
                    }
                    conn.send(("ok", used))
                    return
            except Exception:
                conn.send(("error", traceback.format_exc()))
                return
    finally:
        conn.close()


class WorkerPool:
    """The parent's handle on one parallel replay's worker processes:
    one duplex pipe per worker and the shard -> worker ownership map
    that :meth:`scale_shard` / :meth:`restart_shard` route commands with.
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
        self._plan_column = plan.shard_ids
        blocks = partition_shards(
            cluster.shards, cluster.config.parallel_workers
        )
        self.owner: Dict[int, int] = {}
        for worker, owned in enumerate(blocks):
            for shard in owned:
                self.owner[shard] = worker
        shared = {
            "replay_columns": trace.replay_columns(),
            "app_ids": trace.app_ids,
            "shard_ids": plan.shard_ids,
            "geometry": cluster.geometry,
            "apps": [
                (app, cluster.app_shares[app], cluster.engine_factories[app])
                for app in cluster.engine_factories
            ],
            "app_table": self.app_table,
            "total_shards": cluster.shards,
        }
        self.connections = []
        self.processes = []
        try:
            for owned in blocks:
                parent_end, child_end = context.Pipe()
                self.connections.append(parent_end)
                process = context.Process(
                    target=_worker_main,
                    args=(
                        child_end,
                        list(self.connections),
                        dict(shared, owned=owned),
                    ),
                    daemon=True,
                )
                process.start()
                child_end.close()
                self.processes.append(process)
        except BaseException:
            self.shutdown()
            raise

    # -- command plumbing ----------------------------------------------

    def _send(self, worker: int, message) -> None:
        try:
            self.connections[worker].send(message)
        except OSError:
            raise RuntimeError(_DIED.format(worker)) from None

    def _receive(self, worker: int):
        try:
            status, value = self.connections[worker].recv()
        except (EOFError, OSError):
            raise RuntimeError(_DIED.format(worker)) from None
        if status != "ok":
            raise RuntimeError(
                f"parallel replay worker {worker} failed:\n{value}"
            )
        return value

    def _call(self, worker: int, message):
        self._send(worker, message)
        return self._receive(worker)

    def _broadcast(self, message) -> List[Any]:
        """Send to every worker first (they overlap), then collect the
        replies in worker order (the merged result is deterministic)."""
        workers = range(len(self.connections))
        for worker in workers:
            self._send(worker, message)
        return [self._receive(worker) for worker in workers]

    # -- replay protocol -----------------------------------------------

    def replay_window(
        self,
        start: int,
        stop: int,
        shard_column: np.ndarray,
        dead: Collection[int] = (),
        cuts: Sequence[int] = (),
    ) -> List[CutTally]:
        """Replay ``[start, stop)`` on every worker and flush the merged
        tallies into the parent's registries; returns only when the
        whole window is done and accounted, with each of the ``cuts``'
        GET hits and GETs summed over the workers (see
        :func:`~repro.cache.kernel.replay_runs`).

        Workers hold the plan's column already; any other
        ``shard_column`` (the router hands back the plan's own array
        while every shard is live) travels as this window's slice of it.
        """
        rerouted = None
        if shard_column is not self._plan_column:
            rerouted = shard_column[start:stop]
        runs: List[Run] = []
        tallies = [(0, 0)] * len(cuts)
        for worker_runs, worker_tallies in self._broadcast(
            ("window", start, stop, rerouted, tuple(dead), cuts)
        ):
            runs.extend(worker_runs)
            tallies = [
                (hits + more_hits, gets + more_gets)
                for (hits, gets), (more_hits, more_gets) in zip(
                    tallies, worker_tallies
                )
            ]
        flush_runs(self.cluster.servers, self.app_table, runs)
        return tallies

    def scale_shard(self, shard: int, target: float) -> int:
        """Forward a budget resize to the owning worker; returns the
        evictions its engines enforced."""
        return self._call(self.owner[shard], ("scale", shard, target))

    def restart_shard(self, shard: int, budgets: Dict[str, float]) -> None:
        """Forward a cold restart to the owning worker."""
        self._call(self.owner[shard], ("restart", shard, dict(budgets)))

    def finish(self) -> Dict[int, float]:
        """Collect per-shard used-bytes and let the workers exit."""
        memory: Dict[int, float] = {}
        for worker_memory in self._broadcast(("finish",)):
            memory.update(worker_memory)
        return memory

    def shutdown(self) -> None:
        """Tear everything down; safe to call twice and mid-error. A
        live worker reads its closed pipe as EOF and returns; one caught
        inside a long window is terminated, not waited for."""
        for connection in self.connections:
            try:
                connection.close()
            except OSError:
                pass
        for process in self.processes:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)


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
