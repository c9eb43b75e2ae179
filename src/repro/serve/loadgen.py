"""Open-loop load generation with HDR-style latency accounting.

An open-loop generator schedules arrivals from a clock, not from
responses: request ``i`` is issued at its scheduled offset whether or
not earlier requests completed, and its latency is measured **from the
scheduled arrival** -- so queueing delay under overload shows up in the
percentiles instead of being hidden by a slowing client (the
coordinated-omission trap closed-loop benchmarks fall into).

Arrivals are ``poisson`` (exponential gaps, seeded -- the memoryless
process real front-end traffic approximates) or ``fixed`` (equal
spacing -- a stress clock). The request count is ``rate * duration_s``
rounded, deterministic per config, so runs at the same seed replay the
same schedule.

Each request is sent once. An error response or a dropped connection
counts as an error.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.cache.stats import OP_NAMES, OP_SET
from repro.common.errors import ConfigurationError
from repro.serve.histogram import LatencyHistogram
from repro.serve.protocol import MAX_VALUE_BYTES, Command, encode_command
from repro.serve.service import synthesize_value

ARRIVAL_MODES = ("poisson", "fixed")

_ERROR_PREFIXES = (b"ERROR", b"CLIENT_ERROR", b"SERVER_ERROR")

#: Default window count for the per-run latency timeline (the
#: p99-during-outage view); each window covers ``issued / windows``
#: scheduled arrivals.
DEFAULT_TIMELINE_WINDOWS = 16


def commands_from_trace(trace, limit: int) -> List[bytes]:
    """The first ``limit`` requests of a compiled ``trace`` as wire
    bytes.

    The generator cycles through these, so a short trace still feeds a
    long run. Values are synthesized to each request's size (clamped to
    the wire's 1 MB cap).
    """
    work: List[bytes] = []
    for key, op_code, value_size in zip(
        trace.keys[:limit].tolist(),
        trace.op_codes[:limit].tolist(),
        trace.value_sizes[:limit].tolist(),
    ):
        data = b""
        if op_code == OP_SET:
            data = synthesize_value(key, min(value_size, MAX_VALUE_BYTES))
        work.append(
            encode_command(Command(op=OP_NAMES[op_code], keys=[key], data=data))
        )
    if not work:
        raise ConfigurationError("trace produced no requests to serve")
    return work


@dataclass
class LoadWindow:
    """One timeline window: latencies of the requests whose *scheduled*
    index fell in ``[start, stop)`` -- the during-outage percentile
    view, aligned with the fault schedule's virtual-time axis."""

    start: int
    stop: int
    completed: int = 0
    errors: int = 0
    histogram: LatencyHistogram = field(default_factory=LatencyHistogram)

    def to_dict(self) -> Dict[str, Any]:
        summary = self.histogram.summary_ms()
        return {
            "start": self.start,
            "stop": self.stop,
            "completed": self.completed,
            "errors": self.errors,
            "p50_ms": summary["p50"],
            "p99_ms": summary["p99"],
        }


@dataclass
class LoadResult:
    """What one generator run measured."""

    offered_rate: float
    duration_s: float
    arrivals: str
    issued: int = 0
    completed: int = 0
    errors: int = 0
    elapsed_s: float = 0.0
    histogram: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Scheduled-index latency windows (empty when the run is too small
    #: to split, or the caller asked for none).
    windows: List[LoadWindow] = field(default_factory=list)

    @property
    def achieved_rate(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.completed / self.elapsed_s


class LoadGenerator:
    """Replays prepared commands open-loop against serve clients."""

    #: Don't sleep for gaps the event loop can't resolve anyway; burst
    #: through due arrivals instead (with periodic yields) so the
    #: generator can actually offer high rates.
    SLEEP_RESOLUTION = 0.0015

    def __init__(
        self,
        rate: float,
        duration_s: float,
        arrivals: str = "poisson",
        seed: int = 0,
        timeline_windows: int = 0,
    ) -> None:
        if arrivals not in ARRIVAL_MODES:
            raise ConfigurationError(
                f"arrivals must be one of {ARRIVAL_MODES}, got {arrivals!r}"
            )
        if rate <= 0:
            raise ConfigurationError("rate must be > 0")
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be > 0")
        if timeline_windows < 0:
            raise ConfigurationError("timeline_windows must be >= 0")
        self.rate = float(rate)
        self.duration_s = float(duration_s)
        self.arrivals = arrivals
        self.seed = seed
        self.timeline_windows = timeline_windows

    def offsets(self) -> List[float]:
        """Scheduled arrival offsets (seconds from run start)."""
        count = max(1, round(self.rate * self.duration_s))
        if self.arrivals == "fixed":
            return [index / self.rate for index in range(count)]
        rng = random.Random(self.seed)
        clock = 0.0
        out = []
        for _ in range(count):
            out.append(clock)
            clock += rng.expovariate(self.rate)
        return out

    def _make_windows(self, count: int) -> List[LoadWindow]:
        if self.timeline_windows <= 0 or count < self.timeline_windows:
            return []
        stride = -(-count // self.timeline_windows)  # ceil division
        return [
            LoadWindow(start=start, stop=min(count, start + stride))
            for start in range(0, count, stride)
        ]

    async def run(
        self,
        clients: Sequence,
        work: Sequence[bytes],
    ) -> LoadResult:
        """Issue the schedule round-robin across ``clients``, cycling
        through ``work``; collect latency and error counts."""
        result = LoadResult(
            offered_rate=self.rate,
            duration_s=self.duration_s,
            arrivals=self.arrivals,
        )
        loop = asyncio.get_running_loop()
        offsets = self.offsets()
        result.windows = self._make_windows(len(offsets))
        stride = (
            result.windows[0].stop - result.windows[0].start
            if result.windows
            else 0
        )
        start = loop.time()
        tasks = []
        for index, offset in enumerate(offsets):
            target = start + offset
            delay = target - loop.time()
            if delay > self.SLEEP_RESOLUTION:
                await asyncio.sleep(delay)
            elif index % 64 == 0:
                # Let in-flight tasks and the server worker run even
                # when the schedule says "now"; open-loop still means
                # arrivals never wait for responses.
                await asyncio.sleep(0)
            data = work[index % len(work)]
            client = clients[index % len(clients)]
            window = (
                result.windows[index // stride] if stride else None
            )
            result.issued += 1
            tasks.append(
                asyncio.create_task(
                    self._issue(client, data, target, result, window)
                )
            )
        if tasks:
            await asyncio.gather(*tasks)
        result.elapsed_s = loop.time() - start
        return result

    # -- one scheduled request ----------------------------------------

    async def _issue(self, client, data, target, result, window) -> None:
        try:
            response: Optional[bytes] = await client.request(data)
        except OSError:  # ConnectionError included
            response = None
        if response is not None and not response.startswith(_ERROR_PREFIXES):
            latency = asyncio.get_running_loop().time() - target
            result.completed += 1
            result.histogram.record(latency)
            if window is not None:
                window.completed += 1
                window.histogram.record(latency)
        else:
            result.errors += 1
            if window is not None:
                window.errors += 1
