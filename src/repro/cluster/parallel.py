"""Parallel replay: a barrier-free cluster replay split across processes.

Shards are independent between barriers (paper section 4.3), and a
cluster with neither a rebalancer nor a fault injector has no barrier
but the trace's end: its whole replay is one window, and each shard's
runs can be replayed in another process. With
``cluster.parallel_workers >= 2``,
:meth:`~repro.cluster.Cluster.replay_compiled` hands such a replay to
:func:`replay_parallel`, and refuses a rebalanced or faulted one before
anything changes:

* Each worker owns a contiguous block of shards and builds those
  shards' engines cold through the cluster's registered factories.
* The trace's replay columns, its ``app_ids`` column and the routing
  plan's ``shard_ids`` -- the arrays the trace and the plan hold, not
  copies -- travel in each worker's start-up arguments: inherited under
  ``fork``, pickled once under ``spawn`` (the engine factories travel
  the same way).
* A worker replays rows ``[0, len(trace))`` of its own shards through
  the replay kernel (:func:`~repro.cache.kernel.replay_runs` with
  ``owned``) and sends one message back: its run tallies and the used
  bytes of each of its shards.

The parent flushes the runs in worker order -- contiguous shard blocks
in worker order are the in-process run order, so the registries come
out bit-identical -- and keeps the used bytes for the report. Its own
engines never process a request.
"""


from __future__ import annotations

import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.kernel import Run, flush_runs, replay_runs
from repro.cache.server import CacheServer
from repro.cache.slabs import SlabGeometry
from repro.cluster.cluster import Cluster
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
    """Worker process entry: send one reply, ``("ok", (runs, used bytes
    per shard))`` from :func:`_replay_owned`, or ``("error",
    traceback)`` instead of dying silently.

    ``parent_ends`` are the parent's pipe ends this process came to
    hold a copy of by being created (``fork`` inherits every open one);
    they are closed first, so that a parent that closed its end reads
    as a broken pipe here -- nobody waits for the reply, and the worker
    ends quietly.
    """
    for end in parent_ends:
        end.close()
    try:
        reply = ("ok", _replay_owned(payload))
    except Exception:
        reply = ("error", traceback.format_exc())
    try:
        conn.send(reply)
    except OSError:
        pass
    conn.close()


def _replay_owned(payload: Dict[str, Any]) -> Tuple[List[Run], Dict[int, float]]:
    """Build the owned shards cold and replay the whole trace on them:
    their runs, and each one's used bytes."""
    servers = build_shard_servers(
        payload["geometry"], payload["owned"], payload["apps"]
    )
    owned = np.zeros(payload["total_shards"], dtype=bool)
    owned[payload["owned"]] = True
    shard_ids = payload["shard_ids"]
    runs, _ = replay_runs(
        servers,
        payload["app_table"],
        payload["replay_columns"],
        shard_ids,
        payload["app_ids"],
        0,
        len(shard_ids),
        owned=owned,
    )
    used = {shard: server.memory_in_use() for shard, server in servers.items()}
    return runs, used


class WorkerPool:
    """The parent's handle on one parallel replay's worker processes:
    started by the constructor, read once by :meth:`results`, torn down
    by :meth:`shutdown`."""

    def __init__(
        self,
        cluster: Cluster,
        trace,
        plan: RoutingPlan,
        start_method: Optional[str] = None,
    ) -> None:
        _require_fresh(cluster)
        context = get_mp_context(start_method)
        shared = {
            "replay_columns": trace.replay_columns(),
            "app_ids": trace.app_ids,
            "shard_ids": plan.shard_ids,
            "geometry": cluster.geometry,
            "apps": [
                (app, cluster.app_shares[app], cluster.engine_factories[app])
                for app in cluster.engine_factories
            ],
            "app_table": list(trace.app_table),
            "total_shards": cluster.shards,
        }
        self.connections = []
        self.processes = []
        try:
            for owned in partition_shards(
                cluster.shards, cluster.config.parallel_workers
            ):
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

    def results(self) -> Tuple[List[Run], Dict[int, float]]:
        """Every worker's reply, read in worker order: the runs in the
        in-process run order, and each shard's used bytes. A worker
        that failed raises with its traceback; one that died raises a
        one-line error."""
        runs: List[Run] = []
        used: Dict[int, float] = {}
        for worker, connection in enumerate(self.connections):
            try:
                status, value = connection.recv()
            except (EOFError, OSError):
                raise RuntimeError(_DIED.format(worker)) from None
            if status != "ok":
                raise RuntimeError(
                    f"parallel replay worker {worker} failed:\n{value}"
                )
            runs.extend(value[0])
            used.update(value[1])
        return runs, used

    def shutdown(self) -> None:
        """Tear everything down; safe to call twice and mid-error. A
        worker still replaying is terminated once the join times out."""
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


def replay_parallel(
    cluster: Cluster,
    trace,
    plan: RoutingPlan,
    start_method: Optional[str] = None,
) -> Dict[int, float]:
    """Replay ``trace`` on a fresh, barrier-free ``cluster`` across its
    workers, flush the tallies into the cluster's shard registries and
    return each shard's used bytes (the parent's engines stay empty)."""
    pool = WorkerPool(cluster, trace, plan, start_method)
    try:
        runs, used = pool.results()
    finally:
        pool.shutdown()
    flush_runs(cluster.servers, trace.app_table, runs)
    return used


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
