"""Hill climbing across applications (paper sections 1, 3.3, 4.1).

"Cliffhanger runs across multiple eviction queues ... it can be the queue
of a slab or a queue of an entire application." This module applies
Algorithm 1 at application granularity on a shared server: every app gets
an *app-level* shadow monitor -- a byte-weighted LRU simulation of the
app's whole reservation with a shadow extension appended -- and a shadow
hit moves reservation bytes from a random other app to the winner via the
engines' ``grow_budget``/``shrink_budget`` hooks.

The monitor is a simulation rather than an instrumented queue because an
application's engine may split its memory across many slab queues; the
question "would this app have hit with a little more total memory?" is a
question about the app's *global* LRU behaviour, which the monitor chain
answers directly.

:meth:`CrossAppHillClimber.replay_compiled` walks a compiled trace one
request at a time: a shadow hit moves memory between apps before the
next request is served, so the trace cannot be cut into the independent
per-app runs of :func:`repro.cache.kernel.replay_runs`.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.common.constants import (
    DEFAULT_CREDIT_BYTES,
    HILL_CLIMB_SHADOW_BYTES,
    MIN_QUEUE_BYTES,
)
from repro.cache.keyqueue import KeyQueue, QueueChain
from repro.cache.server import CacheServer
from repro.cache.stats import OP_GET, OUTCOME_HIT, StatsRegistry
from repro.core.hill_climbing import HillClimber


class _AppMonitor:
    """Byte-weighted LRU model of one app: [reservation | shadow]."""

    def __init__(self, name: str, budget: float, shadow_bytes: float) -> None:
        self.main = KeyQueue(budget, name=f"{name}/sim")
        self.shadow = KeyQueue(shadow_bytes, name=f"{name}/sim-shadow")
        self.chain = QueueChain([self.main, self.shadow], physical_segments=1)

    def access(self, key: str, item_bytes: int) -> bool:
        """Feed one request; True iff it landed in the shadow region."""
        segment = self.chain.access(key)
        if segment is None:
            self.chain.insert(key, float(item_bytes))
            return False
        return segment == 1

    def resize(self, budget: float) -> None:
        self.chain.resize_segment(0, budget)


class CrossAppHillClimber:
    """Algorithm 1 over the applications of one :class:`CacheServer`.

    Replay a trace with :meth:`replay_compiled`: every request also
    feeds its app's monitor, and app reservations drift
    toward the configuration that equalizes the apps' byte-gradient of
    hit rate -- the cross-application variant of Eq. 1 that Table 3
    solves statically.
    """

    def __init__(
        self,
        server: CacheServer,
        credit_bytes: float = DEFAULT_CREDIT_BYTES,
        shadow_bytes: float = HILL_CLIMB_SHADOW_BYTES,
        min_bytes: float = MIN_QUEUE_BYTES,
        seed: int = 0,
    ) -> None:
        self.server = server
        self.shadow_bytes = shadow_bytes
        self.monitors: Dict[str, _AppMonitor] = {}
        self.climber = HillClimber(
            credit_bytes=credit_bytes,
            min_bytes=min_bytes,
            rng=random.Random(seed),
        )
        for app, engine in server.engines.items():
            self.monitors[app] = _AppMonitor(
                app, engine.budget_bytes, shadow_bytes
            )
            self.climber.register(
                app,
                get_capacity=lambda e=engine: e.budget_bytes,
                set_capacity=lambda cap, a=app: self._apply_budget(a, cap),
            )

    # ------------------------------------------------------------------

    def _apply_budget(self, app: str, budget: float) -> None:
        engine = self.server.engines[app]
        delta = budget - engine.budget_bytes
        if delta >= 0:
            engine.grow_budget(delta)
        else:
            engine.shrink_budget(-delta)
        self.monitors[app].resize(budget)

    def replay_compiled(self, trace) -> StatsRegistry:
        """Replay a :class:`~repro.workloads.compiled.CompiledTrace`
        through the server, climbing as it goes; returns its stats.

        Each request is served by its app's engine and recorded, then
        fed to the app's monitor weighted by its ``item_bytes`` (key +
        value). Only GETs that *missed physically* and landed in the
        monitor's shadow climb -- a request the app served from real
        memory is no evidence it needs more. Apps registered after the
        climber was built are served but not monitored.
        """
        server = self.server
        server.check_replayable(trace)
        record = server.stats.record_code
        on_shadow_hit = self.climber.on_shadow_hit
        apps = trace.app_table
        engines = [server.engines.get(app) for app in apps]
        monitors = [self.monitors.get(app) for app in apps]
        keys, op_codes, slab_classes, chunk_bytes, item_bytes = (
            trace.replay_columns()
        )
        for app_id, key, op, class_index, chunk, nbytes in zip(
            trace.app_ids.tolist(),
            keys.tolist(),
            op_codes.tolist(),
            slab_classes.tolist(),
            chunk_bytes.tolist(),
            item_bytes.tolist(),
        ):
            code = engines[app_id].process_fast(
                key, op, class_index, chunk, nbytes
            )
            record(apps[app_id], op, code)
            monitor = monitors[app_id]
            if (
                monitor is not None
                and monitor.access(key, nbytes)
                and op == OP_GET
                and not code & OUTCOME_HIT
            ):
                on_shadow_hit(apps[app_id])
        return server.stats

    def budgets(self) -> Dict[str, float]:
        return {
            app: engine.budget_bytes
            for app, engine in self.server.engines.items()
        }
