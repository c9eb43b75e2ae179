"""Hit/miss accounting and time-series recording.

The *fast* replay path reports each request's outcome as a packed integer
code (see :func:`pack_outcome`) so the hot loop never allocates;
:class:`AccessOutcome` remains as the object API for observers, tests and
one-off calls. Experiment harnesses aggregate outcomes in
:class:`HitMissCounter` objects keyed by (application, slab class).
:class:`TimelineRecorder` samples arbitrary scalar series over (simulated)
time -- it produces Figure 8 (memory per slab over time) and Figure 9 (hit
rate over time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Integer op and outcome codes (the allocation-free replay protocol)
# ---------------------------------------------------------------------------

#: Operation codes, aligned with ``repro.workloads.trace.OPS`` order.
OP_GET = 0
OP_SET = 1
OP_DELETE = 2
OP_CODES: Dict[str, int] = {"get": OP_GET, "set": OP_SET, "delete": OP_DELETE}
OP_NAMES: Tuple[str, ...] = ("get", "set", "delete")

#: Outcome codes pack (hit, shadow_hit, slab_class, dead, evicted) into
#: one int: bit 0 = hit, bit 1 = shadow hit, bits 2-8 = slab class + 1
#: (0 means "no slab class"), bit 9 = dead shard (the request targeted a
#: crashed shard and was never served -- the cluster fault layer's
#: ``miss-through`` policy), bits 10+ = eviction count.
OUTCOME_HIT = 1
OUTCOME_SHADOW_HIT = 2
CLASS_SHIFT = 2
CLASS_MASK = 0x7F
OUTCOME_DEAD = 1 << 9
EVICTED_SHIFT = 10


def pack_outcome(
    hit: bool,
    slab_class: Optional[int] = None,
    shadow_hit: bool = False,
    evicted: int = 0,
    dead: bool = False,
) -> int:
    """Pack an outcome into the integer code the fast path uses."""
    code = (evicted << EVICTED_SHIFT) | (
        ((slab_class + 1) if slab_class is not None else 0) << CLASS_SHIFT
    )
    if hit:
        code |= OUTCOME_HIT
    if shadow_hit:
        code |= OUTCOME_SHADOW_HIT
    if dead:
        code |= OUTCOME_DEAD
    return code


def unpack_slab_class(code: int) -> Optional[int]:
    """Slab class encoded in ``code`` (None when absent)."""
    packed = (code >> CLASS_SHIFT) & CLASS_MASK
    return packed - 1 if packed else None


@dataclass(frozen=True)
class AccessOutcome:
    """The result of processing one request.

    Attributes:
        hit: True if the request was served from physical cache memory.
        shadow_hit: True if the request missed physically but its key was
            found in a shadow extension (used by the allocators; always
            False when shadow queues are disabled).
        slab_class: Slab class the request mapped to (None for engines
            without slab classes, e.g. the global-LRU mode).
        app: Application identifier.
        op: The operation that produced this outcome ("get" or "set").
        evicted: Number of items evicted from physical memory as a direct
            consequence of this request.
        dead: True when the request was addressed to a crashed shard and
            never reached an engine (cluster fault injection under the
            ``miss-through`` policy); GETs still count as misses.
    """

    hit: bool
    app: str
    op: str
    slab_class: Optional[int] = None
    shadow_hit: bool = False
    evicted: int = 0
    dead: bool = False


class HitMissCounter:
    """Counts GET hits/misses and SETs; computes hit rates.

    The paper reports hit rate over GET requests only; SETs are tracked
    separately for the throughput experiments (Table 7).
    """

    __slots__ = (
        "get_hits", "get_misses", "sets", "shadow_hits", "evictions",
        "dead_requests",
    )

    def __init__(self) -> None:
        self.get_hits = 0
        self.get_misses = 0
        self.sets = 0
        self.shadow_hits = 0
        self.evictions = 0
        self.dead_requests = 0

    # ------------------------------------------------------------------

    def record(self, outcome: AccessOutcome) -> None:
        if outcome.op == "get":
            if outcome.hit:
                self.get_hits += 1
            else:
                self.get_misses += 1
        elif outcome.op == "set":
            self.sets += 1
        if outcome.shadow_hit:
            self.shadow_hits += 1
        if outcome.dead:
            self.dead_requests += 1
        self.evictions += outcome.evicted

    def merge(self, other: "HitMissCounter") -> None:
        self.get_hits += other.get_hits
        self.get_misses += other.get_misses
        self.sets += other.sets
        self.shadow_hits += other.shadow_hits
        self.evictions += other.evictions
        self.dead_requests += other.dead_requests

    # ------------------------------------------------------------------

    @property
    def gets(self) -> int:
        return self.get_hits + self.get_misses

    @property
    def misses(self) -> int:
        return self.get_misses

    def hit_rate(self) -> float:
        """GET hit rate in [0, 1]; 0.0 when no GETs were observed."""
        total = self.gets
        return self.get_hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HitMissCounter(gets={self.gets}, hits={self.get_hits}, "
            f"hit_rate={self.hit_rate():.4f})"
        )


class StatsRegistry:
    """Aggregates outcomes by application and by (application, slab class)."""

    def __init__(self) -> None:
        self.total = HitMissCounter()
        self.by_app: Dict[str, HitMissCounter] = {}
        self.by_app_class: Dict[Tuple[str, Optional[int]], HitMissCounter] = {}
        # (app, slab_class) -> (total, app, class) counter triple; resolved
        # once so recording a code is a dict hit plus int adds.
        self._triples: Dict[
            Tuple[str, Optional[int]], Tuple[HitMissCounter, ...]
        ] = {}

    def record(self, outcome: AccessOutcome) -> None:
        self.total.record(outcome)
        app_counter = self.by_app.get(outcome.app)
        if app_counter is None:
            app_counter = self.by_app.setdefault(outcome.app, HitMissCounter())
        app_counter.record(outcome)
        key = (outcome.app, outcome.slab_class)
        class_counter = self.by_app_class.get(key)
        if class_counter is None:
            class_counter = self.by_app_class.setdefault(key, HitMissCounter())
        class_counter.record(outcome)

    def record_code(self, app: str, op: int, code: int) -> None:
        """Record one packed outcome code for ``app``."""
        self.record_code_bulk(app, op, code, 1)

    def record_code_bulk(self, app: str, op: int, code: int, count: int) -> None:
        """Record ``count`` requests of ``app`` that share one ``(op,
        code)`` outcome.

        The replay kernel tallies identical outcomes per run and flushes
        them here; every counter update is an integer addition, so the
        batched result is bit-identical to ``count`` single records.
        """
        slab = (code >> CLASS_SHIFT) & CLASS_MASK
        key = (app, slab - 1 if slab else None)
        triple = self._triples.get(key)
        if triple is None:
            triple = self._make_triple(key)
        evicted = (code >> EVICTED_SHIFT) * count
        if op == OP_GET:
            if code & OUTCOME_HIT:
                for counter in triple:
                    counter.get_hits += count
            else:
                for counter in triple:
                    counter.get_misses += count
        elif op == OP_SET:
            for counter in triple:
                counter.sets += count
        if code & OUTCOME_SHADOW_HIT:
            for counter in triple:
                counter.shadow_hits += count
        if code & OUTCOME_DEAD:
            for counter in triple:
                counter.dead_requests += count
        if evicted:
            for counter in triple:
                counter.evictions += evicted

    def _make_triple(
        self, key: Tuple[str, Optional[int]]
    ) -> Tuple["HitMissCounter", "HitMissCounter", "HitMissCounter"]:
        app = key[0]
        app_counter = self.by_app.get(app)
        if app_counter is None:
            app_counter = self.by_app.setdefault(app, HitMissCounter())
        class_counter = self.by_app_class.get(key)
        if class_counter is None:
            class_counter = self.by_app_class.setdefault(key, HitMissCounter())
        triple = (self.total, app_counter, class_counter)
        self._triples[key] = triple
        return triple

    def app_hit_rate(self, app: str) -> float:
        counter = self.by_app.get(app)
        return counter.hit_rate() if counter else 0.0

    def class_counters_for(self, app: str) -> Dict[Optional[int], HitMissCounter]:
        return {
            slab: counter
            for (owner, slab), counter in self.by_app_class.items()
            if owner == app
        }


@dataclass
class OpCounter:
    """Counts the primitive data-structure operations an engine performs.

    The micro-benchmark cost model (Tables 6-7) converts these counts into
    latency and throughput overheads. Counting is unconditional and cheap
    (integer adds); engines without shadow queues simply leave the shadow
    counters at zero.
    """

    hash_lookups: int = 0
    promotes: int = 0
    inserts: int = 0
    evictions: int = 0
    shadow_lookups: int = 0
    shadow_inserts: int = 0
    shadow_evictions: int = 0
    routes: int = 0

    def merge(self, other: "OpCounter") -> None:
        self.hash_lookups += other.hash_lookups
        self.promotes += other.promotes
        self.inserts += other.inserts
        self.evictions += other.evictions
        self.shadow_lookups += other.shadow_lookups
        self.shadow_inserts += other.shadow_inserts
        self.shadow_evictions += other.shadow_evictions
        self.routes += other.routes

    def total(self) -> int:
        return (
            self.hash_lookups
            + self.promotes
            + self.inserts
            + self.evictions
            + self.shadow_lookups
            + self.shadow_inserts
            + self.shadow_evictions
            + self.routes
        )


@dataclass
class TimelineRecorder:
    """Samples named scalar series at a fixed (simulated-time) interval.

    ``interval`` is in the same unit as request timestamps (seconds in the
    synthetic traces). Calling :meth:`maybe_sample` on every request is
    cheap: it only materializes a sample when the interval has elapsed.
    """

    interval: float
    times: List[float] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    _next_sample: Optional[float] = None

    def maybe_sample(self, now: float, values: Dict[str, float]) -> bool:
        """Record ``values`` if ``now`` crossed the next sampling point.

        Returns True when a sample was taken. Series seen for the first
        time are back-filled with zeros to stay aligned with ``times``.
        """
        if self._next_sample is None:
            self._next_sample = now
        if now < self._next_sample:
            return False
        self.times.append(now)
        for name in self.series:
            if name not in values:
                self.series[name].append(
                    self.series[name][-1] if self.series[name] else 0.0
                )
        for name, value in values.items():
            column = self.series.setdefault(
                name, [0.0] * (len(self.times) - 1)
            )
            column.append(float(value))
        while self._next_sample <= now:
            self._next_sample += self.interval
        return True

    def as_rows(self) -> List[Tuple[float, Dict[str, float]]]:
        """Return ``(time, {series: value})`` rows for rendering."""
        rows = []
        for i, t in enumerate(self.times):
            rows.append(
                (t, {name: column[i] for name, column in self.series.items()})
            )
        return rows

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe payload (what reports embed and results serialize)."""
        return {
            "interval": self.interval,
            "times": list(self.times),
            "series": {
                name: list(column) for name, column in self.series.items()
            },
        }
