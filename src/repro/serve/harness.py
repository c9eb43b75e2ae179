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

from repro.common.errors import ConfigurationError
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
class ServeConfig:
    """The serializable shape of a scenario's ``serve`` block."""

    rate: float = 2_000.0
    duration_s: float = 1.0
    arrivals: str = "poisson"
    backpressure: str = "queue"
    connections: int = 4
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    max_batch: int = DEFAULT_MAX_BATCH
    transport: str = "memory"
    #: Server-side graceful degradation: drained commands older than
    #: this are answered ``BUSY`` unexecuted (0 = never expire).
    queue_deadline_s: float = 0.0
    #: Per-connection in-flight cap (0 = unlimited).
    max_inflight: int = 0
    #: Client retry/backoff block (:class:`RetryPolicy` shape); ``None``
    #: means fire-once clients, exactly the pre-retry behavior.
    retry: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be > 0, got {self.rate}")
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be > 0, got {self.duration_s}"
            )
        if self.arrivals not in ARRIVAL_MODES:
            raise ConfigurationError(
                f"arrivals must be one of {ARRIVAL_MODES}, "
                f"got {self.arrivals!r}"
            )
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ConfigurationError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.connections < 1:
            raise ConfigurationError(
                f"connections must be >= 1, got {self.connections}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(
                f"transport must be one of {TRANSPORTS}, "
                f"got {self.transport!r}"
            )
        if self.queue_deadline_s < 0:
            raise ConfigurationError(
                f"queue_deadline_s must be >= 0, got {self.queue_deadline_s}"
            )
        if self.max_inflight < 0:
            raise ConfigurationError(
                f"max_inflight must be >= 0, got {self.max_inflight}"
            )
        if self.retry is not None:
            # Validate and normalize (defaults filled in) so round-trips
            # and sweep axes over ``serve.retry.*`` are canonical.
            object.__setattr__(
                self, "retry", RetryPolicy.from_dict(self.retry).to_dict()
            )

    def retry_policy(self) -> Optional[RetryPolicy]:
        """The parsed retry block, or ``None`` for fire-once clients."""
        if self.retry is None:
            return None
        policy = RetryPolicy.from_dict(self.retry)
        return policy if policy.enabled else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "duration_s": self.duration_s,
            "arrivals": self.arrivals,
            "backpressure": self.backpressure,
            "connections": self.connections,
            "queue_depth": self.queue_depth,
            "max_batch": self.max_batch,
            "transport": self.transport,
            "queue_deadline_s": self.queue_deadline_s,
            "max_inflight": self.max_inflight,
            "retry": dict(self.retry) if self.retry is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Optional[Dict[str, Any]]) -> "ServeConfig":
        if payload is None:
            return cls()
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"serve block must be a mapping, got {type(payload).__name__}"
            )
        known = {
            "rate", "duration_s", "arrivals", "backpressure",
            "connections", "queue_depth", "max_batch", "transport",
            "queue_deadline_s", "max_inflight", "retry",
        }
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown serve fields: {', '.join(sorted(unknown))}"
            )
        return cls(**payload)


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
