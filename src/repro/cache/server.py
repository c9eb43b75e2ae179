"""The multi-tenant cache server.

A :class:`CacheServer` hosts one engine per application (Memcachier model:
"each application reserves a certain amount of memory in advance", paper
section 3) and replays compiled traces through them, aggregating
statistics. The server itself is deliberately thin -- all policy lives in
the engines -- mirroring how Cliffhanger "runs on each memory cache
server and does not require any coordination between different servers"
(section 4.3). Its one request path is :meth:`CacheServer.replay_compiled`
(the replay kernel); a caller that must act between requests replays
sub-traces window by window, and
:meth:`repro.core.crossapp.CrossAppHillClimber.replay_compiled` walks
one request at a time.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.common.errors import ConfigurationError
from repro.cache.engines import Engine
from repro.cache.kernel import flush_runs, replay_runs
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import OpCounter, StatsRegistry


class CacheServer:
    """One cache server hosting multiple tenant engines."""

    def __init__(self, geometry: Optional[SlabGeometry] = None) -> None:
        self.geometry = geometry or SlabGeometry.default()
        self.engines: Dict[str, Engine] = {}
        self.stats = StatsRegistry()

    # ------------------------------------------------------------------

    def add_app(self, engine: Engine) -> None:
        """Register a tenant. The engine's ``app`` name must be unique."""
        if engine.app in self.engines:
            raise ConfigurationError(f"app {engine.app!r} already registered")
        self.engines[engine.app] = engine

    def replace_app(self, engine: Engine) -> Engine:
        """Swap a registered tenant's engine for a fresh one.

        The cluster fault layer's cold-restart path: a restarted shard
        keeps its cumulative stats (downtime misses stay on the record)
        but loses every cached item, which a factory-fresh engine
        models exactly. Returns the replaced engine.
        """
        if engine.app not in self.engines:
            raise ConfigurationError(
                f"app {engine.app!r} not registered; use add_app"
            )
        old = self.engines[engine.app]
        self.engines[engine.app] = engine
        return old

    # ------------------------------------------------------------------

    def check_replayable(self, trace) -> None:
        """Raise unless the compiled ``trace`` can replay here.

        It must have been compiled for this server's slab ladder, and
        every app with a request in it must be registered. Checked
        before the first request, so a bad trace never leaves engines
        and stats half-mutated.
        """
        if trace.geometry.chunk_sizes != self.geometry.chunk_sizes:
            raise ConfigurationError(
                "compiled trace was built for a different slab geometry "
                f"({trace.geometry.chunk_sizes} vs "
                f"{self.geometry.chunk_sizes}); recompile it"
            )
        for app_id in np.unique(trace.app_ids):
            name = trace.app_table[app_id]
            if name not in self.engines:
                raise ConfigurationError(f"request for unknown app {name!r}")

    def replay_compiled(self, trace) -> StatsRegistry:
        """Replay a :class:`~repro.workloads.compiled.CompiledTrace`.

        A single server is the one-shard case of the replay kernel
        (:func:`repro.cache.kernel.replay_runs`): one run per app, each
        looping :meth:`Engine.process_fast` over integer columns and
        tallying packed outcome codes that are flushed to the registry
        once. No :class:`Request`/:class:`AccessOutcome` objects exist
        on this path.
        """
        self.check_replayable(trace)
        servers = (self,)
        runs = replay_runs(
            servers,
            trace.app_table,
            trace.replay_columns(),
            np.zeros(len(trace), dtype=np.int64),
            trace.app_ids,
            0,
            len(trace),
        )
        flush_runs(servers, trace.app_table, runs)
        return self.stats

    # ------------------------------------------------------------------

    def total_ops(self) -> OpCounter:
        """Merged operation counts across all engines (for the cost
        model)."""
        merged = OpCounter()
        for engine in self.engines.values():
            merged.merge(engine.ops)
        return merged

    def memory_in_use(self) -> float:
        return sum(engine.used_bytes() for engine in self.engines.values())

    def memory_reserved(self) -> float:
        return sum(engine.budget_bytes for engine in self.engines.values())
