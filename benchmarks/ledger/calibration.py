"""Host-speed calibration: what makes a time comparable across runs.

The hosts this benchmark runs on are small shared virtual machines.
Measured here (README "Steadiness"): the same deterministic replay
takes 0.25 s or 0.50 s depending on the second it runs in; the slowdown
is per virtual CPU (two busy vCPUs drift independently, correlation
0.02-0.2) and has a long memory, so neither medians within a run nor
best-of-N remove it. Un-normalised, every throughput metric spreads
20-40% between identical runs.

So every timed measurement is bracketed by this fixed kernel, run on
the *same* CPU immediately before and after it, and reported at
reference speed: a wall time is multiplied by ``REFERENCE_S / kernel
time`` (a rate divided by it). The kernel is dictionary, string and
list work in pure Python -- the same kind of work the program does --
and must never change, or every recorded baseline is void. With it,
identical runs agree to 4-6%. Raw medians stay in the result file.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional

#: The kernel's duration on an unhindered core of the host the first
#: baseline was recorded on (2.1 GHz Xeon guest, CPython 3.11).
REFERENCE_S = 0.0050

_KEYS = [f"calibration:{index}" for index in range(30_000)]


def kernel() -> float:
    """Seconds the fixed calibration work takes right now, here."""
    started = time.perf_counter()
    table = {}
    for key in _KEYS:
        table[key] = len(key)
    total = 0
    for key in _KEYS:
        total += table[key]
    column: List[int] = []
    for index in range(30_000):
        column.append(index * 3 & 255)
    return time.perf_counter() - started


class Host:
    """Which CPUs the run uses, and how fast they are right now.

    The harness (offline replays, load generator) is pinned to one CPU
    and the server subprocess to another, so that a calibration can be
    taken on the very CPU a measurement ran on -- and so that server
    and generator never share one. With a single CPU, or where pinning
    is not permitted, everything stays where the scheduler puts it.
    """

    def __init__(self) -> None:
        allowed = sorted(os.sched_getaffinity(0))
        self.all_cpus = set(allowed)
        self.harness_cpu = allowed[0]
        self.server_cpu = allowed[1] if len(allowed) > 1 else allowed[0]
        self.pinned = self._pin(0, {self.harness_cpu})
        #: Every speed factor taken, for the result's provenance.
        self.factors: List[float] = []

    @staticmethod
    def _pin(pid: int, cpus) -> bool:
        try:
            os.sched_setaffinity(pid, cpus)
        except OSError:
            return False
        return True

    def pin_server(self, pid: int) -> None:
        if self.pinned:
            self._pin(pid, {self.server_cpu})

    @contextmanager
    def unpinned(self) -> Iterator[None]:
        """Let the harness (and the worker processes it forks) use
        every CPU for the length of the block."""
        if self.pinned:
            self._pin(0, self.all_cpus)
        try:
            yield
        finally:
            if self.pinned:
                self._pin(0, {self.harness_cpu})

    def factor(self, cpu: Optional[int] = None) -> float:
        """``REFERENCE_S`` over the kernel's time now on ``cpu`` (the
        harness CPU by default): below 1 when the CPU is slow. The
        faster of two kernel runs, so that one preemption does not
        pass for a slow host."""
        move = self.pinned and cpu is not None and cpu != self.harness_cpu
        if move:
            self._pin(0, {cpu})
        try:
            seconds = min(kernel(), kernel())
        finally:
            if move:
                self._pin(0, {self.harness_cpu})
        value = REFERENCE_S / seconds
        self.factors.append(value)
        return value
