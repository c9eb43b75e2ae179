"""The live surface: load phases against the server subprocess.

Every run drives the server through an untimed closed-loop warm-up (a
fixed request count) and then a closed loop with 2 x 32 requests
outstanding, which measures capacity. A traced run adds open loops at
the workload's ``lo`` and ``hi`` rates and at 1.5 x ``hi`` for the
latency figures. Server counters (``stats``) and CPU time (``/proc``)
are read between phases, from outside.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import quantiles
import wire
from offline import CheckFailed
from program import ServerProcess

OUTSTANDING = 32
#: An open-loop phase is judged on windows of this length ...
WINDOW_S = 0.4
#: ... after discarding this much from its start (the generator's first
#: moments after a quiet spell run late; see README "Validity").
LEAD_IN_S = 0.4
#: The latency limit: p99 at or under this.
LIMIT_MS = 10.0
#: A window needs this many samples beyond its p99 to have one.
MIN_TAIL_SAMPLES = 10
#: Refuse an open-loop phase whose generator ran later than this (p99).
MAX_LAG_MS = 1.0

#: The closed loop runs in windows of this length, each between two
#: calibrations of the server's CPU (the server idles meanwhile).
CAPACITY_WINDOW_S = 0.4


class PhaseRecord:
    """A phase's load result plus the server's counters around it."""

    def __init__(self, name: str, load: wire.PhaseResult) -> None:
        self.name = name
        self.load = load
        self.server_cpu_s = 0.0
        self.wall_s = 0.0
        self.stats_before: Dict[str, str] = {}
        self.stats_after: Dict[str, str] = {}

    def delta(self, counter: str) -> int:
        return int(self.stats_after[counter]) - int(self.stats_before[counter])

    def steady(self) -> np.ndarray:
        """Mask of the answered requests scheduled after the lead-in."""
        return self.load.answered & (self.load.scheduled_s >= LEAD_IN_S)

    def window_percentiles(self, fraction: float) -> List[float]:
        """Per-window latency percentile in ms, lead-in discarded. A
        phase too short for any window to have the tail samples (a
        ``--smoke`` run) counts as one window."""
        keep = self.steady()
        slot = ((self.load.scheduled_s[keep] - LEAD_IN_S) // WINDOW_S).astype(int)
        latency = self.load.latency_s[keep] * 1e3
        values = []
        for index in range(int(slot.max()) + 1 if len(slot) else 0):
            window = np.sort(latency[slot == index])
            if len(window) * min(fraction, 1.0 - fraction) >= MIN_TAIL_SAMPLES:
                values.append(quantiles.percentile(window, fraction))
        if not values and len(latency):
            values.append(quantiles.percentile(np.sort(latency), fraction))
        return values

    def lag_p99_ms(self) -> float:
        lag = np.sort(self.load.lag_s[self.load.scheduled_s >= LEAD_IN_S])
        return quantiles.percentile(lag, 0.99) * 1e3


class Serving:
    """The serve phases of one run."""

    def __init__(self, server: ServerProcess, stream: wire.Stream,
                 seed: int, sizes, tracer, host) -> None:
        self.server = server
        self.stream = stream
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.host = host
        self.records: Dict[str, PhaseRecord] = {}
        #: Reply rate of each closed-loop window: as measured, and at
        #: reference speed of the server's CPU.
        self.capacity_raw: List[float] = []
        self.capacity_rates: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.sent_gets = 0
        self.sent_sets = 0
        self.generator: Optional[wire.LoadGenerator] = None

    @staticmethod
    def stream_length(
        capacity_seconds: float, sizes, open_rates=(), open_seconds: float = 0.0
    ) -> int:
        """Requests one run can consume -- the warm-up, an open-loop
        phase at each of ``open_rates``, the closed-loop windows -- so
        that the stream is built once."""
        total = sizes.warmup_requests
        for rate in open_rates:
            total += int(rate * sizes.rate_factor * (open_seconds + LEAD_IN_S)) + 1
        windows = max(1, int(capacity_seconds / CAPACITY_WINDOW_S))
        return total + windows * int(sizes.closed_rps_cap * CAPACITY_WINDOW_S)

    def connect(self) -> None:
        self.generator = wire.LoadGenerator(
            self.stream, self.server.host, self.server.port
        )

    def close(self) -> None:
        if self.generator is not None:
            self.generator.close()
            self.generator = None

    # -- phases --------------------------------------------------------

    def _phase(self, name: str, run) -> PhaseRecord:
        self.tracer.phase = name
        before = self.server.stats()
        cpu_before = self.server.cpu_seconds()
        started = time.perf_counter()
        with self.tracer.span(f"load[{name}]"):
            load = run()
        wall = time.perf_counter() - started
        record = PhaseRecord(name, load)
        record.server_cpu_s = self.server.cpu_seconds() - cpu_before
        record.wall_s = wall
        record.stats_before = before
        record.stats_after = self.server.stats()
        self.records[name] = record
        self.attempted += load.attempted
        self.failed += load.failed
        self.failures.extend(load.failures)
        self.sent_gets += load.sent_gets
        self.sent_sets += load.sent_sets
        self.tracer.phase = ""
        return record

    def warm_up(self) -> PhaseRecord:
        count = self.sizes.warmup_requests
        return self._phase(
            "warmup",
            lambda: self.generator.closed_loop(OUTSTANDING, 0.0, count),
        )

    def open_loop(self, name: str, rate: float, seconds: float) -> PhaseRecord:
        rate = rate * self.sizes.rate_factor
        return self._phase(
            name,
            lambda: self.generator.open_loop(
                rate, seconds + LEAD_IN_S, self.seed
            ),
        )

    def measure_capacity(self, seconds: float) -> None:
        """Closed loop, 2 x 32 outstanding, in short windows; each
        window's reply rate is kept as measured and at reference speed
        of the server's CPU."""
        host = self.host
        cap = int(self.sizes.closed_rps_cap * CAPACITY_WINDOW_S)
        before = host.factor(host.server_cpu)
        for index in range(max(1, int(seconds / CAPACITY_WINDOW_S))):
            record = self._phase(
                f"closed{index}",
                lambda: self.generator.closed_loop(
                    OUTSTANDING, CAPACITY_WINDOW_S, cap
                ),
            )
            after = host.factor(host.server_cpu)
            rate = record.load.completed_in_window / CAPACITY_WINDOW_S
            self.capacity_raw.append(rate)
            self.capacity_rates.append(rate / ((before + after) / 2.0))
            before = after

    def closed_records(self) -> List[PhaseRecord]:
        return [
            record for name, record in self.records.items()
            if name.startswith("closed")
        ]

    def generator_busy_share(self) -> float:
        """Share of the closed loop the generator spent doing anything
        but polling sockets that had nothing for it."""
        closed = self.closed_records()
        return sum(r.load.generator_busy_s for r in closed) / sum(
            r.wall_s for r in closed
        )

    # -- checks --------------------------------------------------------

    def check_totals(self) -> None:
        """The server executed exactly what was sent, and shed nothing."""
        stats = self.server.stats()
        if (
            int(stats["cmd_get"]) != self.sent_gets
            or int(stats["cmd_set"]) != self.sent_sets
        ):
            raise CheckFailed(
                f"server counted {stats['cmd_get']} GETs / "
                f"{stats['cmd_set']} SETs, the generator sent "
                f"{self.sent_gets} / {self.sent_sets}"
            )
        if int(stats["server_shed"]) != 0:
            raise CheckFailed(f"server shed {stats['server_shed']} commands")

    def stop_server(self) -> None:
        """SIGTERM must drain and exit 0."""
        self.close()
        code = self.server.stop()
        if code != 0 or "stopped (drained)" not in self.server.output:
            raise CheckFailed(
                f"server exited {code}: {self.server.output.strip()[-200:]!r}"
            )

    def phase_table(self) -> Dict[str, Dict[str, float]]:
        """Per phase: what was offered, and how busy each side was."""
        table = {}
        for name, record in self.records.items():
            load = record.load
            row = {
                "attempted": load.attempted,
                "failed": load.failed,
                "wall_s": record.wall_s,
                "server_cpu_util": record.server_cpu_s / record.wall_s,
                "generator_busy_share": load.generator_busy_s / record.wall_s,
                "mean_batch": record.delta("server_requests")
                / max(1, record.delta("server_batches")),
                "hit_rate": load.hits / max(1, load.gets),
            }
            if load.lag_s is not None:
                row["send_lag_p99_ms"] = record.lag_p99_ms()
            table[name] = row
        return table

    # -- validity ------------------------------------------------------

    def validity_notes(self) -> List[str]:
        """Reasons the serve numbers of this run should not be trusted
        (the generator, not the server, was the busy one)."""
        notes = []
        for name in ("lo", "hi"):
            record = self.records.get(name)
            if record is None:
                continue
            lag_p99 = record.lag_p99_ms()
            if lag_p99 > MAX_LAG_MS:
                notes.append(
                    f"{name}: generator send lag p99 {lag_p99:.2f} ms "
                    f"> {MAX_LAG_MS} ms"
                )
        if self.closed_records() and self.generator_busy_share() >= 0.9:
            notes.append(
                f"closed loop: generator busy share "
                f"{self.generator_busy_share():.2f} >= 0.9"
            )
        return notes


def selftest_rps(stream: wire.Stream, seconds: float, seed: int, host) -> float:
    """How fast the generator alone runs: the stream's keys as GETs,
    closed loop, against a peer (on the server's CPU) that answers
    every line ``END``."""
    process = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("responder.py"))],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        if not banner.startswith("listening "):
            raise RuntimeError(f"self-test responder did not start: {banner!r}")
        port = int(banner.split()[1])
        host.pin_server(process.pid)
        # More requests than any generator could send in the time, so
        # that the clock, not the stream, ends the loop.
        count = int(700_000 * seconds) + 1
        repeats = -(-count // len(stream))
        gets = wire.Stream(
            stream.key_table,
            (stream.key_ids * repeats)[:count],
            [wire.GET] * count,
            [0] * count,
            seed,
        )
        generator = wire.LoadGenerator(gets, "127.0.0.1", port)
        try:
            result = generator.closed_loop(OUTSTANDING, seconds, count)
        finally:
            generator.close()
        if result.failed:
            raise CheckFailed(f"self-test failed: {result.failures}")
        return result.completed_in_window / seconds
    finally:
        process.terminate()
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()
