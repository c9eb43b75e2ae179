"""Algorithms 2 and 3: scaling performance cliffs with shadow queues.

Each logical queue is split into a *left* and *right* physical queue;
requests are hash-partitioned between them by the request ratio (Talus
partitioning, section 4.2). Two pointers track the simulated sizes the
partitions should anchor to:

* ``right_pointer`` searches for the **top** of the cliff. Hits in the
  right partition's appended shadow probe ("right of the pointer") push it
  right; hits in the right partition's tail probe ("left of the pointer")
  pull it back, but never below the operating point.
* ``left_pointer`` searches for the **bottom** of the cliff, moving the
  opposite way: shadow-probe hits push it left, tail-probe hits pull it
  right, never above the operating point.

On a concave curve hit density *decreases* with queue depth, so tail-probe
hits dominate shadow-probe hits, both pointers stay pinned to the
operating point, the ratio stays 1/2 and the two half-size queues behave
exactly like the original single queue (section 4.2: "Two evenly split
queues behave exactly the same as one longer queue"). Inside a convex
region the balance flips and the pointers walk to the hull anchors.

The physical layout mirrors the paper's implementation (section 5.1,
Figure 5): per partition the chain is

``[ main | tail probe (128 items) | cliff shadow (128 items) | hill shadow ]``

where hits in *tail probe* are physical hits that double as
"left-of-pointer" events, the *cliff shadow* gives "right-of-pointer"
events, and the *hill shadow* feeds Algorithm 1. The 1 MB hill shadow is
split across the two partitions in proportion to their sizes, and physical
repartitioning is applied lazily on the next miss to avoid thrashing
(section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.allocation.talus import compute_ratio
from repro.common.constants import (
    CLIFF_MIN_QUEUE_ITEMS,
    CLIFF_PROBE_ITEMS,
    DEFAULT_CREDIT_BYTES,
    HILL_CLIMB_SHADOW_BYTES,
)
from repro.common.errors import ConfigurationError
from repro.common.hashing import unit_interval_hash
from repro.cache.keyqueue import KeyQueue, QueueChain

# Segment indices within a partition chain.
SEG_MAIN = 0
SEG_TAIL = 1
SEG_CLIFF = 2
SEG_HILL = 3

#: :meth:`CliffhangerQueue.access` results. Only ``ACCESS_HIT`` was served
#: from physical memory (main or tail probe); the finds are misses whose key
#: sat in the hill shadow (Algorithm 1's event) or the cliff shadow.
ACCESS_MISS = 0
ACCESS_HIT = 1
ACCESS_HILL_FIND = 2
ACCESS_CLIFF_FIND = 3


@dataclass(frozen=True)
class CliffConfig:
    """Tunables of the combined per-queue structure.

    Defaults are the paper's: 128-item probes, 1 MB hill shadow, 4 KB
    credits, cliff scaling gated to queues over 1000 items.
    """

    chunk_size: int
    probe_items: int = CLIFF_PROBE_ITEMS
    hill_shadow_bytes: float = HILL_CLIMB_SHADOW_BYTES
    credit_bytes: float = DEFAULT_CREDIT_BYTES
    min_queue_items_for_cliff: int = CLIFF_MIN_QUEUE_ITEMS
    salt: int = 0
    resize_on_miss: bool = True
    #: Misses tolerated without any pointer event before the queue
    #: resets its pointers and merges. Probe hits move pointers, but a
    #: pointer stranded in a zero-density region (e.g. beyond a cliff
    #: that demand has moved away from) would otherwise stay frozen
    #: forever, keeping a stale split engaged. In an active ramp events
    #: arrive constantly and the counter never trips. (Engineering
    #: addition to the paper's pseudocode.)
    stale_miss_limit: int = 4000
    #: Multiples of the probe width the right pointer must escape before
    #: the queue splits; diffusion noise stays below this, a real convex
    #: ramp walks past it.
    split_threshold_probes: float = 4.0
    #: Requests after a split at which the split is judged against the
    #: pre-split hit-rate EMA; a regression beyond the margin reverts the
    #: split and backs off exponentially. Splitting can only win when the
    #: operating point sits in a genuinely convex region -- this guard
    #: bounds the damage of a false engage near a cliff edge, where
    #: anchor noise can otherwise cost more than the (near-zero)
    #: theoretical gain. (Engineering addition to the paper.)
    split_eval_requests: int = 6000
    split_regression_margin: float = 0.01
    split_backoff_requests: int = 30000

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        if self.probe_items <= 0:
            raise ConfigurationError("probe_items must be positive")
        if self.credit_bytes <= 0:
            raise ConfigurationError("credit_bytes must be positive")

    @property
    def probe_bytes(self) -> float:
        return float(self.probe_items * self.chunk_size)


class _Partition:
    """One physical partition with its probe and shadow segments."""

    def __init__(
        self,
        name: str,
        config: CliffConfig,
        physical_bytes: float,
        hill_bytes: float,
    ) -> None:
        self.config = config
        probe = config.probe_bytes
        tail_cap = min(probe, physical_bytes)
        self.main = KeyQueue(physical_bytes - tail_cap, name=f"{name}/main")
        self.tail = KeyQueue(tail_cap, name=f"{name}/tail")
        self.cliff_shadow = KeyQueue(probe, name=f"{name}/cliff")
        self.hill_shadow = KeyQueue(hill_bytes, name=f"{name}/hill")
        self.chain = QueueChain(
            [self.main, self.tail, self.cliff_shadow, self.hill_shadow],
            physical_segments=2,
        )

    @property
    def physical_capacity(self) -> float:
        return self.main.capacity + self.tail.capacity

    def set_physical(self, physical_bytes: float) -> int:
        """Resize the physical region, keeping the tail probe at its
        configured width (shrinking it only when the whole partition is
        smaller than one probe). Returns how many items that evicts."""
        tail_cap = min(self.config.probe_bytes, physical_bytes)
        evicted = self.chain.resize_segment(SEG_TAIL, tail_cap)
        main_cap = physical_bytes - tail_cap
        return evicted + self.chain.resize_segment(SEG_MAIN, main_cap)

    def set_hill(self, hill_bytes: float) -> None:
        self.chain.resize_segment(SEG_HILL, hill_bytes)


class CliffhangerQueue:
    """One logical queue under the combined Cliffhanger structure.

    Always partitioned: with cliff scaling inactive (disabled, or queue
    under the 1000-item threshold) the pointers stay pinned at the
    operating point, giving the even split that is behaviorally identical
    to a single queue. Capacities are bytes; every item weighs one chunk.
    """

    def __init__(
        self,
        name: str,
        capacity_bytes: float,
        config: CliffConfig,
        enable_cliff_scaling: bool = True,
    ) -> None:
        if capacity_bytes < 0:
            raise ConfigurationError("capacity must be >= 0")
        self.name = name
        self.config = config
        self.enable_cliff_scaling = enable_cliff_scaling
        self._size = float(capacity_bytes)
        # Algorithm 2, INIT: ratio = 1/2, both pointers at queue.size.
        self.left_pointer = self._size
        self.right_pointer = self._size
        self.ratio = 0.5
        half = self._size / 2.0
        hill_half = config.hill_shadow_bytes / 2.0
        self.left = _Partition(f"{name}/L", config, half, hill_half)
        self.right = _Partition(f"{name}/R", config, half, hill_half)
        self._pending_resize = False
        # Lazy splitting: the queue runs unpartitioned until the right
        # pointer has escaped far enough to evidence a cliff (see
        # _pointer_event); it merges back with hysteresis. Only ever
        # True while cliff_active, so the request path tests it alone.
        self._split = False
        self._stale_misses = 0
        # Split self-evaluation state (see CliffConfig.split_eval_requests).
        self._requests_seen = 0
        self._hit_ema_value = 0.0
        self._hit_ema_alpha = 1.0 / 1500.0
        self._split_baseline: Optional[float] = None
        self._split_eval_due = 0
        self._split_backoff_until = 0
        self._split_backoff = config.split_backoff_requests
        # Diagnostics for the convergence experiments (Figure 9).
        self.pointer_updates = 0
        self.repartitions = 0
        self.splits = 0
        self.merges = 0
        # Route everything to the right partition until a split engages.
        self._apply_partition_targets()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def capacity_bytes(self) -> float:
        return self._size

    @property
    def used_bytes(self) -> float:
        left, right = self.left, self.right
        return (left.main.used + left.tail.used) + (
            right.main.used + right.tail.used
        )

    @property
    def cliff_active(self) -> bool:
        return (
            self.enable_cliff_scaling
            and self._size
            >= self.config.min_queue_items_for_cliff * self.config.chunk_size
        )

    def partition_sizes(self) -> Tuple[float, float]:
        return (
            self.left.physical_capacity,
            self.right.physical_capacity,
        )

    def overhead_items(self) -> int:
        """Keys held only in shadow segments (memory-overhead audit)."""
        return (
            len(self.left.cliff_shadow)
            + len(self.left.hill_shadow)
            + len(self.right.cliff_shadow)
            + len(self.right.hill_shadow)
        )

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def access(self, key: object) -> int:
        """GET path; returns an ``ACCESS_*`` code. Hits promote (migrating
        to the routed partition when the ratio re-routed the key since it
        was stored); shadow finds remove the key and report, leaving
        insertion to the caller."""
        self._requests_seen += 1
        # Unsplit regimes (below the size gate, or no cliff evidence yet)
        # keep everything in the right partition: splitting a queue that
        # does not need it costs accuracy to hash-thinning noise, which
        # is why the paper only runs cliff scaling on large queues
        # (section 5.1). See _pointer_event for the split trigger.
        routed, other = self.right, self.left
        if (
            self._split
            and unit_interval_hash(key, self.config.salt) < self.ratio
        ):
            routed, other = other, routed
        segment = routed.chain.touch(key)
        if segment == SEG_MAIN:
            # Already promoted: every item weighs one chunk and capacities
            # only move inside _apply_partition_targets, which cascades,
            # so there is nothing to push down.
            self._observe_hit(True)
            return ACCESS_HIT
        holder = routed
        if segment is None:
            holder = other
            segment = other.chain.segment_of(key)
            if segment is None:
                self._observe_hit(False)
                return ACCESS_MISS
        holder.chain.remove(key)
        if segment <= SEG_TAIL:
            # Physical hit: promote to the MRU position of the partition
            # the key *now* routes to.
            routed.chain.insert(key, self.config.chunk_size)
            if segment == SEG_TAIL:
                self._pointer_event(holder, SEG_TAIL)
            self._observe_hit(True)
            return ACCESS_HIT
        # Shadow find: the key is gone; the caller re-inserts (cache fill).
        if segment == SEG_CLIFF:
            self._pointer_event(holder, SEG_CLIFF)
        self._observe_hit(False)
        return ACCESS_HILL_FIND if segment == SEG_HILL else ACCESS_CLIFF_FIND

    def insert(self, key: object, weight: Optional[float] = None) -> int:
        """SET / fill-on-miss path. Applies any pending repartition first
        (section 5.1: resize only on a miss). Returns physical evictions:
        with the repartition applied both chains sit within capacity, so
        the routed chain's cascade is the only thing that can push an
        entry out of physical memory. ``weight`` is the queue protocol's
        (:mod:`repro.core.managed`); every item here weighs one chunk.
        """
        self._decay_pointers()
        if self._pending_resize:
            self._apply_partition_targets()
        routed, other = self.right, self.left  # routed as in access()
        if (
            self._split
            and unit_interval_hash(key, self.config.salt) < self.ratio
        ):
            routed, other = other, routed
        other.chain.remove(key)
        return routed.chain.insert(key, self.config.chunk_size)

    def remove(self, key: object) -> bool:
        """DELETE path: purge ``key`` from every segment; True only when
        it was in physical memory (main or tail probe)."""
        resident = False
        for chain in (self.left.chain, self.right.chain):
            segment = chain.segment_of(key)
            if segment is not None:
                chain.remove(key)
                resident = resident or segment <= SEG_TAIL
        return resident

    # ------------------------------------------------------------------
    # Algorithm 2: pointer updates
    # ------------------------------------------------------------------

    def _pointer_event(self, partition: _Partition, segment: int) -> None:
        if not self.cliff_active:
            return
        credit = self.config.credit_bytes
        size = self._size
        if partition is self.right:
            if segment == SEG_CLIFF:
                # Hit right of the right pointer: the cliff continues.
                # Clamped: a pointer more than 4x the queue away cannot
                # be simulated by a partition anyway, and letting it run
                # away would take arbitrarily long to walk back.
                ceiling = max(4.0 * size, size + 64.0 * self.config.probe_bytes)
                self.right_pointer = min(
                    ceiling, self.right_pointer + credit
                )
            elif self.right_pointer > size:
                # Hit left of the right pointer: pull back toward S.
                self.right_pointer = max(size, self.right_pointer - credit)
            else:
                return
        else:
            if segment == SEG_CLIFF:
                # Hit right of the left pointer: still convex; the left
                # anchor belongs further down the curve.
                floor = self.config.probe_bytes
                new_left = max(floor, self.left_pointer - credit)
                if new_left == self.left_pointer:
                    return
                self.left_pointer = new_left
            elif self.left_pointer < size:
                self.left_pointer = min(size, self.left_pointer + credit)
            else:
                return
        self.pointer_updates += 1
        self._stale_misses = 0
        self._update_split_state()
        self._recompute_ratio()

    def _observe_hit(self, hit: bool) -> None:
        """Update the hit-rate EMA and run any due split evaluation."""
        self._hit_ema_value += self._hit_ema_alpha * (
            (1.0 if hit else 0.0) - self._hit_ema_value
        )
        if (
            self._split
            and self._split_baseline is not None
            and self._requests_seen >= self._split_eval_due
        ):
            regressed = (
                self._hit_ema_value
                < self._split_baseline - self.config.split_regression_margin
            )
            if regressed:
                self._revert_split()
            else:
                # Keep monitoring against the pre-split baseline: the
                # damage of a mis-anchored split can build up slowly as
                # lazy repartitions apply.
                self._split_eval_due = (
                    self._requests_seen + self.config.split_eval_requests
                )

    def _revert_split(self) -> None:
        """Undo a split judged harmful and back off exponentially."""
        self._split = False
        self.merges += 1
        self.left_pointer = self._size
        self.right_pointer = self._size
        self._split_baseline = None
        self._split_backoff_until = self._requests_seen + self._split_backoff
        self._split_backoff = min(
            self._split_backoff * 2, 8 * self.config.split_backoff_requests
        )
        self.ratio = self._effective_ratio()
        self._pending_resize = True

    def _decay_pointers(self) -> None:
        """Reset a stale pointer search (see
        :attr:`CliffConfig.stale_miss_limit`); called once per miss."""
        if not self.cliff_active:
            return
        size = self._size
        if self.right_pointer == size and self.left_pointer == size:
            self._stale_misses = 0
            return
        self._stale_misses += 1
        if self._stale_misses < self.config.stale_miss_limit:
            return
        self._stale_misses = 0
        self.right_pointer = size
        self.left_pointer = size
        if self._split:
            self._split = False
            self.merges += 1
            self._split_baseline = None
            self._split_backoff_until = (
                self._requests_seen + self.config.split_backoff_requests
            )
        self.ratio = self._effective_ratio()
        self._pending_resize = True

    def _update_split_state(self) -> None:
        """Lazy splitting with hysteresis.

        Unsplit, the whole queue acts as the right partition, and its
        tail probe / cliff shadow drive the right pointer. On a concave
        curve tail hits dominate, so the pointer stays pinned near the
        operating point and the queue never splits -- plain LRU, no
        hash-thinning loss. Inside a convex region shadow hits dominate,
        the pointer escapes, and once it clears two probe widths the
        queue splits and the full two-pointer search (Algorithm 2)
        engages. If the pointer later collapses back within one probe
        width the partitions merge again. The split/merge hysteresis is
        an engineering refinement of the paper's always-split
        formulation; the engaged-state behaviour is Algorithms 2+3
        verbatim.
        """
        distance_right = self.right_pointer - self._size
        if not self._split:
            threshold = (
                self.config.split_threshold_probes * self.config.probe_bytes
            )
            if (
                distance_right >= threshold
                and self._requests_seen >= self._split_backoff_until
            ):
                self._split = True
                self.splits += 1
                self.left_pointer = self._size
                self._split_baseline = self._hit_ema_value
                self._split_eval_due = (
                    self._requests_seen + self.config.split_eval_requests
                )
        elif distance_right < self.config.probe_bytes:
            self._split = False
            self.merges += 1
            self.left_pointer = self._size
            # Any merge imposes the (non-doubling) backoff: a pointer
            # that collapsed back was diffusion noise, and re-splitting
            # immediately would churn capacity on concave workloads.
            self._split_baseline = None
            self._split_backoff_until = (
                self._requests_seen + self.config.split_backoff_requests
            )

    def _effective_ratio(self) -> float:
        """Algorithm 3's COMPUTERATIO over the current pointers (0.5
        while unsplit or while only one pointer has moved)."""
        if not (self.cliff_active and self._split):
            return 0.5
        return compute_ratio(
            self._size, self.left_pointer, self.right_pointer
        )

    def _recompute_ratio(self) -> None:
        self.ratio = self._effective_ratio()
        if self.config.resize_on_miss:
            self._pending_resize = True
        else:
            self._apply_partition_targets()

    def _partition_targets(self) -> Tuple[float, float]:
        """Algorithm 3, UPDATEPHYSICALQUEUES, normalized to the budget.

        ``left = leftPointer * ratio`` and ``right = rightPointer *
        (1 - ratio)`` sum exactly to the operating point whenever both
        pointers have left it (the Talus identity); while only one pointer
        has moved the raw sum can exceed the budget, so we rescale
        proportionally -- a budget-safety correction to the paper's
        pseudocode. While the queue is unsplit everything belongs to the
        right partition.
        """
        if not (self.cliff_active and self._split):
            return (0.0, self._size)
        left_raw = self.left_pointer * self.ratio
        right_raw = self.right_pointer * (1.0 - self.ratio)
        total = left_raw + right_raw
        if total <= 0:
            return (self._size / 2.0, self._size / 2.0)
        scale = self._size / total
        return (left_raw * scale, right_raw * scale)

    def _apply_partition_targets(self) -> int:
        """Resize both partitions to their targets; returns evictions."""
        left_target, right_target = self._partition_targets()
        evicted = self.left.set_physical(left_target)
        evicted += self.right.set_physical(right_target)
        hill = self.config.hill_shadow_bytes
        if self._size > 0:
            self.left.set_hill(hill * left_target / self._size)
            self.right.set_hill(hill * right_target / self._size)
        else:
            self.left.set_hill(hill / 2.0)
            self.right.set_hill(hill / 2.0)
        self._pending_resize = False
        self.repartitions += 1
        return evicted

    # ------------------------------------------------------------------
    # Hill-climbing integration
    # ------------------------------------------------------------------

    def set_capacity(self, capacity_bytes: float) -> int:
        """Resize the whole logical queue (Algorithm 1 moves memory here).

        Pointers are clamped to keep ``left <= size <= right`` and the
        partitions are resized immediately so byte accounting stays exact.
        Returns the items evicted from physical memory.
        """
        if capacity_bytes < 0:
            raise ConfigurationError("capacity must be >= 0")
        self._size = float(capacity_bytes)
        if not self.cliff_active:
            self.left_pointer = self._size
            self.right_pointer = self._size
            self._split = False
        else:
            self.left_pointer = min(self.left_pointer, self._size)
            self.right_pointer = max(self.right_pointer, self._size)
            self._update_split_state()
        self.ratio = self._effective_ratio()
        return self._apply_partition_targets()
