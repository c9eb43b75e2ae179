"""Open-loop load generation with HDR-style latency accounting.

An open-loop generator schedules arrivals from a clock, not from
responses: request ``i`` is issued at its scheduled offset whether or
not earlier requests completed, and its latency is measured **from the
scheduled arrival** -- so queueing delay under overload shows up in the
percentiles instead of being hidden by a slowing client (the
coordinated-omission trap closed-loop benchmarks fall into). Retries
keep that discipline: a request that succeeds on its third attempt
records one latency, measured from the *original* scheduled arrival.

Arrivals are ``poisson`` (exponential gaps, seeded -- the memoryless
process real front-end traffic approximates) or ``fixed`` (equal
spacing -- a stress clock). The request count is ``rate * duration_s``
rounded, deterministic per config, so runs at the same seed replay the
same schedule.

:class:`RetryPolicy` is the client-side fault-tolerance block: capped
exponential backoff with deterministic seeded jitter and a retry
*budget* (retries may never exceed ``budget`` x issued requests -- the
standard defense against retry storms amplifying an outage).
Retries are only attempted when the failed attempt provably did not
execute (``SERVER_ERROR busy``, a connection error on a GET): a
``noreply`` SET gets no response, fails nothing, and is therefore never
retried -- the property tests pin that its side effect applies at most
once.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache.stats import OP_NAMES, OP_SET
from repro.common.errors import ConfigurationError
from repro.common.spec import Spec, spec_field
from repro.serve.histogram import LatencyHistogram
from repro.serve.protocol import (
    BUSY,
    MAX_VALUE_BYTES,
    Command,
    encode_command,
)
from repro.serve.service import synthesize_value

ARRIVAL_MODES = ("poisson", "fixed")

_ERROR_PREFIXES = (b"ERROR", b"CLIENT_ERROR", b"SERVER_ERROR")

#: Default window count for the per-run latency timeline (the
#: p99-during-outage view); each window covers ``issued / windows``
#: scheduled arrivals.
DEFAULT_TIMELINE_WINDOWS = 16

#: Fraction of each retry backoff randomized away (0 = exact exponential
#: steps, 1 = anywhere in ``(0, backoff]``).
BACKOFF_JITTER = 0.5


def commands_from_trace(trace, limit: int) -> List[Tuple[bytes, str]]:
    """The first ``limit`` requests of a compiled ``trace`` as
    ``(wire_bytes, op)`` pairs.

    The generator cycles through these, so a short trace still feeds a
    long run. Values are synthesized to each request's size (clamped to
    the wire's 1 MB cap).
    """
    work: List[Tuple[bytes, str]] = []
    for key, op_code, value_size in zip(
        trace.keys[:limit].tolist(),
        trace.op_codes[:limit].tolist(),
        trace.value_sizes[:limit].tolist(),
    ):
        data = b""
        if op_code == OP_SET:
            data = synthesize_value(key, min(value_size, MAX_VALUE_BYTES))
        command = Command(op=OP_NAMES[op_code], keys=[key], data=data)
        work.append((encode_command(command), command.op))
    if not work:
        raise ConfigurationError("trace produced no requests to serve")
    return work


@dataclass(frozen=True)
class RetryPolicy(Spec):
    """The serializable shape of a serve block's ``retry`` section.

    Fields:
        max_attempts: Total tries per request (1 = never retry).
        base_backoff_s: First retry's backoff; attempt ``k`` waits
            ``min(max_backoff_s, base * 2^(k-1))``, less up to
            :data:`BACKOFF_JITTER` of it at random. The jitter RNG is
            seeded per request index, so a fixed seed reproduces the
            exact retry timing.
        max_backoff_s: Backoff cap.
        budget: Retry budget: total retries across the run may not
            exceed ``budget x issued`` (prevents retry storms).
    """

    BLOCK = "retry"

    max_attempts: int = spec_field(1, ge=1)
    base_backoff_s: float = spec_field(0.002, ge=0)
    max_backoff_s: float = 0.050
    budget: float = spec_field(0.2, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_backoff_s < self.base_backoff_s:
            raise ConfigurationError(
                f"retry max_backoff_s must be >= base_backoff_s, got "
                f"{self.max_backoff_s} < {self.base_backoff_s}"
            )

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (the first retry is 1)."""
        step = min(
            self.max_backoff_s, self.base_backoff_s * (2 ** (attempt - 1))
        )
        if step <= 0:
            return step
        return step * (1.0 - BACKOFF_JITTER * rng.random())


@dataclass
class LoadWindow:
    """One timeline window: latencies of the requests whose *scheduled*
    index fell in ``[start, stop)`` -- the during-outage percentile
    view, aligned with the fault schedule's virtual-time axis."""

    start: int
    stop: int
    completed: int = 0
    shed: int = 0
    errors: int = 0
    histogram: LatencyHistogram = field(default_factory=LatencyHistogram)

    def to_dict(self) -> Dict[str, Any]:
        summary = self.histogram.summary_ms()
        return {
            "start": self.start,
            "stop": self.stop,
            "completed": self.completed,
            "shed": self.shed,
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
    shed: int = 0
    errors: int = 0
    #: Extra attempts beyond each request's first.
    retries: int = 0
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
        retry: Optional[RetryPolicy] = None,
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
        self.retry = retry
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
        work: Sequence[Tuple[bytes, str]],
    ) -> LoadResult:
        """Issue the schedule round-robin across ``clients``, cycling
        through ``work``; collect latency/shed/error counts."""
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
            data, op = work[index % len(work)]
            client = clients[index % len(clients)]
            window = (
                result.windows[index // stride] if stride else None
            )
            result.issued += 1
            tasks.append(
                asyncio.create_task(
                    self._issue(client, data, op, index, target, result, window)
                )
            )
        if tasks:
            await asyncio.gather(*tasks)
        result.elapsed_s = loop.time() - start
        return result

    # -- one scheduled request, with retries ---------------------------

    async def _issue(
        self, client, data, op, index, target, result, window
    ) -> None:
        loop = asyncio.get_running_loop()
        policy = self.retry
        rng: Optional[random.Random] = None
        attempt = 0
        response: Optional[bytes] = None
        while True:
            attempt += 1
            try:
                response = await client.request(data)
            except OSError:  # ConnectionError included
                response = None
            if response is not None and self._usable(response):
                latency = loop.time() - target
                result.completed += 1
                result.histogram.record(latency)
                if window is not None:
                    window.completed += 1
                    window.histogram.record(latency)
                return
            if not self._may_retry(policy, op, attempt, response, result):
                break
            if rng is None:
                rng = random.Random((self.seed << 20) ^ index)
            backoff = policy.backoff_s(attempt, rng)
            result.retries += 1
            if backoff > 0:
                await asyncio.sleep(backoff)
        if response == BUSY:
            # Shed requests are counted, not timed: their "latency" is
            # the rejection, and mixing it in would flatter the tail.
            result.shed += 1
            if window is not None:
                window.shed += 1
        else:
            result.errors += 1
            if window is not None:
                window.errors += 1

    @staticmethod
    def _usable(response: bytes) -> bool:
        return response != BUSY and not response.startswith(_ERROR_PREFIXES)

    @staticmethod
    def _may_retry(policy, op, attempt, response, result) -> bool:
        """Whether this failed attempt earns another try.

        Only failures that provably did not execute are retried for
        mutating ops: ``SERVER_ERROR busy`` means the queue rejected the
        command outright. GETs additionally retry on connection errors
        (idempotent). A ``noreply`` SET produces no response and no
        failure, so it never reaches here -- retries cannot duplicate
        its side effect. The retry budget caps total retries at
        ``budget x issued`` to keep an outage from amplifying itself.
        """
        if policy is None or attempt >= policy.max_attempts:
            return False
        if response is None:
            if op not in ("get", "gets", "stats"):
                return False  # non-idempotent and possibly executed
        elif response != BUSY:
            return False  # CLIENT_ERROR/ERROR: retrying cannot help
        return result.retries < policy.budget * max(1, result.issued)
