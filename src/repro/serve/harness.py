"""The serve harness: config block, one-call runner, report shape.

:class:`ServeConfig` is the serializable shape of a scenario's
``serve`` block; :func:`run_serve` spins up the in-process server
(memory transport or loopback TCP), replays the workload's compiled
trace open-loop through the :class:`~repro.serve.loadgen.LoadGenerator`
and returns a :class:`ServeReport` whose ``to_dict`` payload is exactly
what :func:`repro.cluster.cluster.render_cluster_report` renders as the
``serve`` section.

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
    RetryPolicy,
    commands_from_trace,
)
from repro.serve.server import (
    BACKPRESSURE_POLICIES,
    DEFAULT_MAX_BATCH,
    DEFAULT_QUEUE_DEPTH,
    CacheServerProcess,
    MemoryClient,
    TCPClient,
)
from repro.serve.service import CacheService

TRANSPORTS = ("memory", "tcp")

#: Most distinct trace commands prepared up front; the generator cycles.
MAX_PREPARED_COMMANDS = 20_000


@dataclass(frozen=True)
class ServeConfig(Spec):
    """The serializable shape of a scenario's ``serve`` block."""

    BLOCK = "serve"

    rate: float = spec_field(2_000.0, gt=0)
    duration_s: float = spec_field(1.0, gt=0)
    arrivals: str = spec_field("poisson", choices=ARRIVAL_MODES)
    backpressure: str = spec_field("queue", choices=BACKPRESSURE_POLICIES)
    connections: int = spec_field(4, ge=1)
    queue_depth: int = spec_field(DEFAULT_QUEUE_DEPTH, ge=1)
    max_batch: int = spec_field(DEFAULT_MAX_BATCH, ge=1)
    transport: str = spec_field("memory", choices=TRANSPORTS)
    #: Server-side graceful degradation: drained commands older than
    #: this are answered ``BUSY`` unexecuted (0 = never expire).
    queue_deadline_s: float = spec_field(0.0, ge=0)
    #: Per-connection in-flight cap (0 = unlimited).
    max_inflight: int = spec_field(0, ge=0)
    #: Client retry/backoff block, normalized through
    #: :class:`RetryPolicy`; ``None`` means fire-once clients.
    retry: Optional[Dict[str, Any]] = spec_field(None, block=RetryPolicy)

    def retry_policy(self) -> Optional[RetryPolicy]:
        """The parsed retry block, or ``None`` for fire-once clients."""
        if self.retry is None:
            return None
        policy = RetryPolicy.from_dict(self.retry)
        return policy if policy.enabled else None


@dataclass
class ServeReport:
    """One serve run's measurements, renderer-shaped via ``to_dict``."""

    config: ServeConfig
    result: LoadResult
    queue_depths: Any
    batches: int
    #: Server-side graceful-degradation counters.
    shed_expired: int = 0
    shed_inflight: int = 0
    #: The chaos section: the fault injector's recovery metrics plus the
    #: scheduled-index latency timeline; ``None`` for fault-free runs.
    faults: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "arrivals": self.config.arrivals,
            "backpressure": self.config.backpressure,
            "connections": self.config.connections,
            "transport": self.config.transport,
            "offered_rate": self.result.offered_rate,
            "achieved_rate": self.result.achieved_rate,
            "duration_s": self.config.duration_s,
            "elapsed_s": self.result.elapsed_s,
            "requests": self.result.issued,
            "completed": self.result.completed,
            "shed": self.result.shed,
            "errors": self.result.errors,
            "timeouts": self.result.timeouts,
            "retries": self.result.retries,
            "hedges": self.result.hedges,
            "shed_expired": self.shed_expired,
            "shed_inflight": self.shed_inflight,
            "retry": (
                dict(self.config.retry)
                if self.config.retry is not None
                else None
            ),
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
    service = CacheService(cluster)
    server = CacheServerProcess(
        service,
        backpressure=config.backpressure,
        queue_depth=config.queue_depth,
        max_batch=config.max_batch,
        queue_deadline_s=config.queue_deadline_s,
        max_inflight=config.max_inflight,
    )
    scheduled = max(1, round(config.rate * config.duration_s))
    prepared = min(MAX_PREPARED_COMMANDS, scheduled)
    work = commands_from_trace(compiled, limit=prepared)
    injector = getattr(cluster, "fault_injector", None)
    generator = LoadGenerator(
        rate=config.rate,
        duration_s=config.duration_s,
        arrivals=config.arrivals,
        seed=seed,
        retry=config.retry_policy(),
        timeline_windows=(
            DEFAULT_TIMELINE_WINDOWS if injector is not None else 0
        ),
    )
    if injector is not None:
        injector.begin(scheduled)
    tcp_clients = []
    try:
        if config.transport == "tcp":
            host, port = await server.start_tcp()
            for _ in range(config.connections):
                client = TCPClient()
                await client.connect(host, port)
                tcp_clients.append(client)
            clients = tcp_clients
        else:
            await server.start()
            clients = [
                MemoryClient(server) for _ in range(config.connections)
            ]
        result = await generator.run(clients, work)
    finally:
        for client in tcp_clients:
            await client.close()
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
        shed_expired=server.metrics.shed_expired,
        shed_inflight=server.metrics.shed_inflight,
        faults=faults_payload,
    )
