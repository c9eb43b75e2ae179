"""Live cluster serving: wire protocol, asyncio server, open-loop load.

The simulator's replay paths answer "what would the hit rate have
been"; this package answers "what does it feel like to *serve*": an
asyncio memcached-style server fronting a
:class:`~repro.cluster.Cluster` (pipelined connections, a bounded
request queue whose overflow backpressures the client) and an open-loop
load generator that sends each request once and reports latency
percentiles and achieved-vs-offered throughput. The server's hot path
is :meth:`~repro.cluster.Cluster.process_batch` -- every queue drain
executes as one call.
"""

from repro.serve.harness import ServeConfig, ServeReport, run_serve
from repro.serve.histogram import LatencyHistogram
from repro.serve.loadgen import (
    LoadGenerator,
    LoadResult,
    LoadWindow,
    commands_from_trace,
)
from repro.serve.protocol import Command, ProtocolParser
from repro.serve.server import CacheServerProcess, MemoryClient
from repro.serve.service import CacheService

__all__ = [
    "CacheServerProcess",
    "CacheService",
    "Command",
    "LatencyHistogram",
    "LoadGenerator",
    "LoadResult",
    "LoadWindow",
    "MemoryClient",
    "ProtocolParser",
    "ServeConfig",
    "ServeReport",
    "commands_from_trace",
    "run_serve",
]
