"""The serve harness: config block, one-call runner, report shape.

:class:`ServeConfig` is the serializable shape of a scenario's
``serve`` block; :func:`run_serve` spins up the in-process server behind
:data:`CONNECTIONS` in-memory connections, replays the workload's
compiled trace open-loop through the
:class:`~repro.serve.loadgen.LoadGenerator` and returns a
:class:`ServeReport` whose ``to_dict`` payload is exactly what
:func:`repro.cluster.cluster.render_cluster_report` renders as the
``serve`` section. The server runs with
:class:`~repro.serve.server.CacheServerProcess`'s defaults; its queue
bounds are deployment settings of the ``repro-serve`` listener.

Chaos serving: when the cluster arrives with a
:class:`~repro.cluster.faults.FaultInjector` attached, the harness arms
it (``begin``/``finish``, like an offline replay does) for the scheduled
request count. Offsets count requests processed through
:meth:`~repro.cluster.Cluster.process_batch`, not wall-clock seconds, so
a fixed seed and schedule reproduce the identical fault timeline
regardless of event-loop interleaving. The
report then grows a ``faults`` section: the injector's per-crash
recovery metrics plus a scheduled-index latency timeline (the
p99-during-outage view).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.common.spec import Spec, spec_field
from repro.serve.loadgen import (
    ARRIVAL_MODES,
    DEFAULT_TIMELINE_WINDOWS,
    LoadGenerator,
    LoadResult,
    commands_from_trace,
)
from repro.serve.server import CacheServerProcess, MemoryClient
from repro.serve.service import CacheService

#: Client connections the generator spreads its requests across.
CONNECTIONS = 4

#: Most distinct trace commands prepared up front; the generator cycles.
MAX_PREPARED_COMMANDS = 20_000


@dataclass(frozen=True)
class ServeConfig(Spec):
    """The serializable shape of a scenario's ``serve`` block."""

    BLOCK = "serve"

    rate: float = spec_field(2_000.0, gt=0)
    duration_s: float = spec_field(1.0, gt=0)
    arrivals: str = spec_field("poisson", choices=ARRIVAL_MODES)


@dataclass
class ServeReport:
    """One serve run's measurements, renderer-shaped via ``to_dict``."""

    config: ServeConfig
    result: LoadResult
    queue_depths: Any
    batches: int
    #: The chaos section: the fault injector's recovery metrics plus the
    #: scheduled-index latency timeline; ``None`` for fault-free runs.
    faults: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "arrivals": self.config.arrivals,
            "offered_rate": self.result.offered_rate,
            "achieved_rate": self.result.achieved_rate,
            "duration_s": self.config.duration_s,
            "elapsed_s": self.result.elapsed_s,
            "requests": self.result.issued,
            "completed": self.result.completed,
            "errors": self.result.errors,
            "latency_ms": self.result.histogram.summary_ms(),
            "queue_depth": {
                "depths": list(self.queue_depths),
                "batches": self.batches,
            },
            "faults": (
                dict(self.faults) if self.faults is not None else None
            ),
        }


def run_serve(
    cluster, compiled, config: ServeConfig, seed: int = 0
) -> ServeReport:
    """Serve ``compiled``'s requests open-loop against ``cluster``.

    Builds the service + server around the cluster, prepares the
    trace's requests as wire commands, runs the generator at the
    configured offered rate, and tears everything down. The cluster
    keeps all state the run produced (counters, rebalance epochs, fault
    records), so callers report on it afterwards exactly like an
    offline replay. A fault injector already attached to the cluster is
    armed for the scheduled request count.
    """
    return asyncio.run(_run_serve(cluster, compiled, config, seed))


async def _run_serve(
    cluster, compiled, config: ServeConfig, seed: int
) -> ServeReport:
    server = CacheServerProcess(CacheService(cluster))
    scheduled = max(1, round(config.rate * config.duration_s))
    prepared = min(MAX_PREPARED_COMMANDS, scheduled)
    work = commands_from_trace(compiled, limit=prepared)
    injector = getattr(cluster, "fault_injector", None)
    generator = LoadGenerator(
        rate=config.rate,
        duration_s=config.duration_s,
        arrivals=config.arrivals,
        seed=seed,
        timeline_windows=(
            DEFAULT_TIMELINE_WINDOWS if injector is not None else 0
        ),
    )
    if injector is not None:
        injector.begin(scheduled)
    try:
        await server.start()
        clients = [MemoryClient(server) for _ in range(CONNECTIONS)]
        result = await generator.run(clients, work)
    finally:
        await server.close()
        if injector is not None:
            injector.finish(cluster.object_requests)
    faults_payload = None
    if injector is not None:
        faults_payload = injector.to_dict()
        faults_payload["latency_timeline"] = [
            window.to_dict() for window in result.windows
        ]
    return ServeReport(
        config=config,
        result=result,
        queue_depths=server.metrics.queue_depths,
        batches=server.metrics.batches,
        faults=faults_payload,
    )
