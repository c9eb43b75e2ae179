"""Deterministic shard fault injection, failover, and recovery metrics.

Cliffhanger "runs on each memory cache server and does not require any
coordination between different servers" (paper section 4.3), so a
cluster of it survives shard loss through exactly two mechanisms: the
ring routes around the dead shard, and every survivor keeps optimizing
locally. A restarted shard comes back *cold* -- the hit-rate-cliff
regime the paper's machinery measures -- which makes fault injection the
natural stress test for the whole stack.

A :class:`FaultSchedule` is pure data: an ordered list of
:class:`FaultEvent` crash/restart actions pinned to absolute request
offsets, plus the degradation policy and recovery-metric knobs. It
round-trips through JSON (the scenario ``faults`` block) and is
sweepable like every other block. Offsets count requests on the
cluster's one clock (trace position offline, requests served live), and
the one window driver stops at each of them, at the metric sampling grid
and at the rebalancer's epochs whoever is driving -- offline replay,
worker pool or live batches -- so a seed fixes the fault timeline.

Two degradation policies model the two real memcache behaviors:

* ``failover`` -- keys whose shard crashed walk the ring to the next
  *live* successor (replicas absorb the load when ``replication > 1``);
  when the shard restarts the same walk routes them straight back, onto
  a cold cache.
* ``miss-through`` -- routing is unchanged; requests addressed to a dead
  shard are swallowed (GETs count as misses) and tagged with the packed
  ``OUTCOME_DEAD`` bit so reports can attribute them.

The :class:`FaultInjector` executes a schedule against one
:class:`~repro.cluster.Cluster`: it maintains the live mask, rebuilds
restarted shards cold through the cluster's stored engine factories,
moves budgets out of and back into the dead shard under the rebalancer's
conservation/floor invariants, and samples a rolling hit-rate timeline
from which per-crash downtime, attributable miss cost, and
time-to-recover are derived.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.spec import Spec, spec_field

#: Event kinds a :class:`FaultSchedule` accepts.
FAULT_KINDS = ("crash", "restart")
#: Degradation policies (see module docstring).
FAULT_POLICIES = ("failover", "miss-through")
#: Default ε for "hit rate back within ε of the pre-fault window".
DEFAULT_RECOVERY_EPSILON = 0.02
#: ``sample_requests: 0`` auto-sizes the metric grid to about this many
#: windows across the trace.
AUTO_SAMPLE_WINDOWS = 128


@dataclass(frozen=True)
class FaultEvent(Spec):
    """One scheduled action: ``crash`` or ``restart`` ``shard`` just
    *after* request ``at`` has been replayed (offset 0 = before the
    first request; offsets at or past the trace end never fire)."""

    BLOCK = "fault event"

    kind: str = spec_field(choices=FAULT_KINDS)
    shard: int = spec_field(ge=0)
    at: int = spec_field(ge=0)


@dataclass(frozen=True)
class FaultSchedule(Spec):
    """The serializable shape of a scenario's ``faults`` block.

    Fields:
        events: Ordered :class:`FaultEvent` list. Offsets must be
            non-decreasing, and per shard the kinds must alternate
            crash, restart, crash, ... starting with a crash.
        policy: ``failover`` or ``miss-through`` (module docstring).
        sample_requests: Metric sampling stride in requests; ``0``
            auto-sizes to roughly :data:`AUTO_SAMPLE_WINDOWS` windows.
        recovery_epsilon: A crash counts as recovered at the first
            sampled window after its restart whose hit rate is within
            this ε of the pre-fault window's.
    """

    BLOCK = "faults"

    events: Tuple[FaultEvent, ...] = spec_field((), items=FaultEvent)
    policy: str = spec_field("failover", choices=FAULT_POLICIES)
    sample_requests: int = spec_field(0, ge=0)
    recovery_epsilon: float = spec_field(DEFAULT_RECOVERY_EPSILON, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.recovery_epsilon >= 1.0:
            raise ConfigurationError(
                f"recovery_epsilon must be in [0, 1), got "
                f"{self.recovery_epsilon}"
            )
        previous = -1
        down = set()
        for event in self.events:
            if event.at < previous:
                raise ConfigurationError(
                    f"fault offsets must be non-decreasing: offset "
                    f"{event.at} follows {previous}"
                )
            previous = event.at
            if event.kind == "crash":
                if event.shard in down:
                    raise ConfigurationError(
                        f"shard {event.shard} crashed twice without a "
                        f"restart (offset {event.at})"
                    )
                down.add(event.shard)
            else:
                if event.shard not in down:
                    raise ConfigurationError(
                        f"shard {event.shard} restarted at offset "
                        f"{event.at} before any crash"
                    )
                down.discard(event.shard)

    @property
    def enabled(self) -> bool:
        """Whether there is anything to inject (an empty schedule leaves
        the replay byte-for-byte on the fault-free paths)."""
        return bool(self.events)

    def validate_for(self, shards: int) -> None:
        """Checks that need the cluster's shard count: event targets in
        range, and at least one shard live at every point in time."""
        alive = shards
        for event in self.events:
            if event.shard >= shards:
                raise ConfigurationError(
                    f"fault event targets shard {event.shard}; cluster "
                    f"has {shards} shard(s)"
                )
            if event.kind == "crash":
                alive -= 1
                if alive < 1:
                    raise ConfigurationError(
                        f"fault schedule crashes every shard at offset "
                        f"{event.at}; at least one shard must stay live"
                    )
            else:
                alive += 1

    def events_by_offset(self) -> Dict[int, List[FaultEvent]]:
        """Events grouped by offset, schedule order preserved."""
        grouped: Dict[int, List[FaultEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.at, []).append(event)
        return grouped


class FaultInjector:
    """Executes one :class:`FaultSchedule` against one cluster.

    Attach with :meth:`repro.cluster.Cluster.attach_faults`. Whoever
    drives requests arms it with :meth:`begin` and disarms it with
    :meth:`finish` (an offline replay does both itself; the serve
    harness does it around a live run). While armed, the cluster's
    window driver stops where :meth:`next_barrier` says and there calls
    :meth:`on_barrier` (metric sampling), the rebalancer's epoch hook
    and :meth:`apply_events` -- in that order.

    Determinism: the schedule is fixed data, the live mask changes only
    at scheduled offsets, restarted engines are rebuilt through the
    cluster's stored factories (seeded ``scenario.seed + shard``), and
    budget moves are proportional arithmetic -- a fixed seed therefore
    yields an identical fault timeline, which the property tests pin.
    """

    def __init__(self, cluster, schedule: FaultSchedule) -> None:
        schedule.validate_for(cluster.shards)
        if cluster.shards == 1 and schedule.enabled:
            raise ConfigurationError(
                "fault injection needs at least two shards: crashing the "
                "only shard would leave no live shard"
            )
        self.cluster = cluster
        self.schedule = schedule
        self.policy = schedule.policy
        self.live: List[bool] = [True] * cluster.shards
        self.fault_evictions = 0
        self.records: List[Dict[str, Any]] = []
        self.sample_step = max(1, schedule.sample_requests)
        #: The hit-rate timeline: sampled offsets, and the window hit
        #: rate and live shard count at each.
        self.times: List[float] = []
        self.series: Dict[str, List[float]] = {
            "hit_rate": [], "live_shards": []
        }
        #: The first offset at or past which a barrier samples again.
        self._next_sample = 0.0
        self._events_at = schedule.events_by_offset()
        self._down: Dict[int, Dict[str, Any]] = {}
        self._saved_budgets: Dict[int, Dict[str, float]] = {}
        self._total = 0
        #: The injector's own barrier offsets, sorted: the sampling
        #: grid, the event offsets and ``total``. Empty while disarmed.
        self._offsets: List[int] = []
        self._sampled_at: Optional[int] = None
        self._last_hits = 0
        self._last_gets = 0
        self._window_rate = 0.0

    # ------------------------------------------------------------------
    # Driver protocol
    # ------------------------------------------------------------------

    def begin(self, total: int) -> None:
        """Arm the schedule for a run of ``total`` requests.

        Resets per-run state, lays out the barrier offsets and applies
        offset-0 events (a crash at 0 precedes every request). ``total``
        is ``len(trace)`` offline and the *scheduled* request count
        (``rate x duration`` rounded) live, so both lay out the same
        barriers; time is "requests processed", so a seed and a schedule
        reproduce the fault timeline however an event loop interleaves.
        """
        self._total = total
        self.live = [True] * self.cluster.shards
        self.fault_evictions = 0
        self.records = []
        self._down = {}
        self._saved_budgets = {}
        self.sample_step = self.schedule.sample_requests or max(
            1, total // AUTO_SAMPLE_WINDOWS
        )
        self.times = []
        self.series = {"hit_rate": [], "live_shards": []}
        barriers = set()
        if total > 0:
            barriers.add(total)
            barriers.update(range(self.sample_step, total, self.sample_step))
            barriers.update(at for at in self._events_at if 0 < at < total)
        self._offsets = sorted(barriers)
        self._sampled_at = None
        self._last_hits, self._last_gets = self._cluster_totals()
        self._window_rate = 0.0
        self.apply_events(0)

    def next_barrier(self, clock: int) -> Optional[int]:
        """The injector's first barrier offset strictly after ``clock``;
        ``None`` once the schedule has run out (or while disarmed)."""
        index = bisect_right(self._offsets, clock)
        if index >= len(self._offsets):
            return None
        return self._offsets[index]

    def finish(self, processed: int) -> None:
        """Disarm at ``processed`` requests: sample the tail window if
        the run stopped between barriers (an under-driven live run never
        reaches ``total``), then drop the offsets so later requests are
        neither split nor sampled at them."""
        if self._offsets and processed != self._sampled_at:
            self.on_barrier(processed)
        self._offsets = []

    def dead_shards(self) -> frozenset:
        """Currently-crashed shard indices (miss-through tagging)."""
        return frozenset(
            shard for shard, flag in enumerate(self.live) if not flag
        )

    def on_barrier(self, offset: int) -> None:
        """Sample the rolling hit rate and advance recovery accounting.

        The window rate is Δhits/Δgets since the previous barrier; a
        crash record accrues miss cost (``max(0, pre_rate - rate) ×
        window_gets``) from its crash barrier until the first sampled
        window at or after its restart whose rate is back within ε of
        the pre-fault window's.
        """
        self._sampled_at = offset
        hits, gets = self._cluster_totals()
        window_hits = hits - self._last_hits
        window_gets = gets - self._last_gets
        self._last_hits, self._last_gets = hits, gets
        if window_gets > 0:
            self._window_rate = window_hits / window_gets
        rate = self._window_rate
        self._sample(offset, rate)
        if window_gets <= 0:
            return
        epsilon = self.schedule.recovery_epsilon
        for record in self.records:
            if record["recovered_at"] is not None:
                continue
            restart_at = record["restart_at"]
            if (
                restart_at is not None
                and offset >= restart_at
                and rate >= record["pre_fault_hit_rate"] - epsilon
            ):
                record["recovered_at"] = offset
                record["time_to_recover"] = offset - record["crash_at"]
                continue
            record["miss_cost"] += (
                max(0.0, record["pre_fault_hit_rate"] - rate) * window_gets
            )

    def _sample(self, offset: int, rate: float) -> None:
        """Append a timeline sample at ``offset`` if it is due.

        Samples fall on a ``sample_step`` grid anchored at the run's
        first barrier. A barrier off that grid (an event offset, a
        rebalance epoch) samples only once it has reached the next grid
        point, which then moves past it.
        """
        if not self.times:
            self._next_sample = float(offset)
        elif offset < self._next_sample:
            return
        while self._next_sample <= offset:
            self._next_sample += self.sample_step
        self.times.append(float(offset))
        self.series["hit_rate"].append(float(rate))
        self.series["live_shards"].append(float(sum(self.live)))

    def apply_events(self, offset: int) -> None:
        """Fire the schedule's events pinned to ``offset`` (barriers run
        sampling and the rebalance epoch first; events at or past the
        trace end never fire)."""
        for event in self._events_at.get(offset, ()):
            if event.at >= self._total:
                continue
            if event.kind == "crash":
                self._crash(event)
            else:
                self._restart(event)

    # ------------------------------------------------------------------
    # Crash / restart mechanics
    # ------------------------------------------------------------------

    def _cluster_totals(self) -> Tuple[int, int]:
        hits = gets = 0
        for server in self.cluster.servers:
            total = server.stats.total
            hits += total.get_hits
            gets += total.gets
        return hits, gets

    def _shard_budget(self, shard: int) -> float:
        return self.cluster.shard_budget(shard)

    def _scale_shard(self, shard: int, target: float) -> None:
        """Scale one shard's engine budgets to ``target`` through the
        cluster's canonical seam
        (:meth:`repro.cluster.Cluster.scale_shard_budget`), charging the
        enforced evictions to the injector -- fault bookkeeping must not
        inflate the rebalancer's own eviction counter."""
        self.fault_evictions += self.cluster.scale_shard_budget(shard, target)

    def _crash(self, event: FaultEvent) -> None:
        shard = event.shard
        self.live[shard] = False
        engines = self.cluster.servers[shard].engines
        self._saved_budgets[shard] = {
            app: engine.budget_bytes for app, engine in engines.items()
        }
        moved = 0.0
        rebalancer = self.cluster.rebalancer
        if rebalancer is not None:
            # Drain the dead shard to the floor and hand its headroom to
            # the survivors, proportional to their current budgets: the
            # cluster total is conserved and no shard drops below the
            # floor. Without a rebalancer budgets stay frozen, exactly
            # like the static split.
            floor = rebalancer.floor_bytes
            moved = max(
                0.0, sum(self._saved_budgets[shard].values()) - floor
            )
            if moved > 0:
                self._scale_shard(shard, floor)
                recipients = [
                    s for s, flag in enumerate(self.live) if flag
                ]
                weights = [self._shard_budget(s) for s in recipients]
                total_weight = sum(weights)
                for recipient, weight in zip(recipients, weights):
                    share = (
                        moved * weight / total_weight
                        if total_weight > 0
                        else moved / len(recipients)
                    )
                    self._scale_shard(recipient, weight + share)
        record = {
            "shard": shard,
            "crash_at": event.at,
            "pre_fault_hit_rate": self._window_rate,
            "restart_at": None,
            "downtime_requests": None,
            "recovered_at": None,
            "time_to_recover": None,
            "miss_cost": 0.0,
            "budget_moved_bytes": moved,
        }
        self.records.append(record)
        self._down[shard] = record

    def _restart(self, event: FaultEvent) -> None:
        shard = event.shard
        self.live[shard] = True
        record = self._down.pop(shard)
        record["restart_at"] = event.at
        record["downtime_requests"] = event.at - record["crash_at"]
        saved = self._saved_budgets.pop(shard)
        rebalancer = self.cluster.rebalancer
        moved = record["budget_moved_bytes"]
        if rebalancer is not None and moved > 0:
            # Reclaim what the crash handed out, proportional to each
            # survivor's headroom above the floor. Every live shard
            # holds at least the floor throughout, so the summed
            # headroom always covers ``moved``; the per-donor clamp
            # only guards float drift.
            floor = rebalancer.floor_bytes
            donors = [
                s
                for s, flag in enumerate(self.live)
                if flag and s != shard
            ]
            budgets = {s: self._shard_budget(s) for s in donors}
            headrooms = {
                s: max(0.0, budgets[s] - floor) for s in donors
            }
            total_headroom = sum(headrooms.values())
            if total_headroom > 0:
                for donor in donors:
                    take = min(
                        moved * headrooms[donor] / total_headroom,
                        headrooms[donor],
                    )
                    if take > 0:
                        self._scale_shard(donor, budgets[donor] - take)
        # Cold restart: factory-fresh engines at the pre-crash budgets
        # (equal to the current ones when budgets are frozen), through
        # the cluster's restart seam so a parallel replay's owning
        # worker rebuilds the same engines.
        self.cluster.restart_shard(shard, saved)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The cluster report's ``faults`` section (JSON-safe)."""
        crashes = []
        for record in self.records:
            payload = dict(record)
            if payload["downtime_requests"] is None:
                payload["downtime_requests"] = (
                    self._total - payload["crash_at"]
                )
            crashes.append(payload)
        return {
            "policy": self.policy,
            "recovery_epsilon": self.schedule.recovery_epsilon,
            "sample_requests": self.sample_step,
            "events": [event.to_dict() for event in self.schedule.events],
            "fault_evictions": self.fault_evictions,
            "dead_requests": sum(
                server.stats.total.dead_requests
                for server in self.cluster.servers
            ),
            "crashes": crashes,
            "timeline": {
                "interval": float(self.sample_step),
                "times": list(self.times),
                "series": {
                    name: list(column) for name, column in self.series.items()
                },
            },
        }
