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

The layout follows the paper's implementation (section 5.1, Figure 5):
each partition is one LRU order cut into four segments,

``[ main | tail probe (128 items) | cliff shadow (128 items) | hill shadow ]``

where hits in *tail probe* are physical hits that double as
"left-of-pointer" events, the *cliff shadow* gives "right-of-pointer"
events, and the *hill shadow* feeds Algorithm 1. The 1 MB hill shadow is
split across the two partitions in proportion to their sizes, and physical
repartitioning is applied lazily on the next miss to avoid thrashing
(section 5.1).

Every item of a queue weighs one chunk, so a segment of ``capacity``
bytes is full at :func:`chunk_limit` keys. A segment is an
insertion-ordered key set, LRU first, and a cascade moves each over-full
segment's LRU key to the MRU end of the next: one C-level pop and one
append per key, where the paper's single list would move a boundary
pointer (in Python, a walk). Keys only move down, so the count leaving
the tail probe is what left physical memory.

The request path makes as few Python calls as it can. The engine's
``process_run`` loops over a whole run of rows, so a request costs no
call of its own; a GET looks for its key once, with inline membership
tests; a GET-miss :meth:`CliffhangerQueue.fill` stores without
searching again, and a SET's :meth:`CliffhangerQueue.insert` purges
with inline membership tests; both count stale misses inline and
store with one step per segment boundary. A DELETE's
:meth:`CliffhangerQueue.remove` stops at the first partition that held
the key. Until a queue first splits its left partition is empty, and
no request searches it. A resize cascades only when a limit shrank. A
split queue routes a key through
:func:`~repro.common.hashing.routing_hash`, whose memo hashes a hot key
once (and a miss's ``fill`` not again after its ``access``). What that costs in Python calls per request is gated by
``tests/sim/test_call_budget.py::BUDGET``: its ``cliffhanger`` row
counts the all-GET memcachier slice, its ``write/cliffhanger`` row the
``serve_write`` mix of GETs, SETs and DELETEs, each against the stock
engine's row on the same slice (``default``, ``write/default``).

The credit path costs what it moves. :meth:`CliffhangerQueue.set_capacity`
runs the size gate, the pointer clamps and the ratio inline and, while
the queue stays unsplit with nothing pending, resizes only the right
partition; a pointer event that leaves the queue unsplit marks no
repartition, since an unsplit queue's targets are ``(0, size)`` wherever
its pointers sit. :meth:`CliffhangerQueue.grow` is the engine's start-up
growth test and resize in one call. The ``credit/1024`` and
``credit/131072`` budget rows count ``sensitivity``'s workload, where
memory moves on most requests. ``tests/core/test_credit_path.py`` holds
this path to the fan-out it replaced, and
``tests/core/test_write_path.py`` holds the write path to the purge and
cascade it replaced.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.allocation.talus import compute_ratio
from repro.common.constants import (
    CLIFF_MIN_QUEUE_ITEMS,
    CLIFF_PROBE_ITEMS,
    DEFAULT_CREDIT_BYTES,
    HILL_CLIMB_SHADOW_BYTES,
)
from repro.common.errors import CacheError, ConfigurationError
from repro.common.hashing import premix_salt, routing_hash

# Segment indices within a partition.
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

#: How far a split's hit-rate EMA may fall below its pre-split baseline
#: before the evaluation reverts the split.
SPLIT_REGRESSION_MARGIN = 0.01


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
    #: pre-split hit-rate EMA; a regression beyond
    #: :data:`SPLIT_REGRESSION_MARGIN` reverts the split and backs off
    #: exponentially. Splitting can only win when the operating point
    #: sits in a genuinely convex region -- this guard
    #: bounds the damage of a false engage near a cliff edge, where
    #: anchor noise can otherwise cost more than the (near-zero)
    #: theoretical gain. (Engineering addition to the paper.)
    split_eval_requests: int = 6000
    split_backoff_requests: int = 30000

    #: Derived, set once here: ``probe_items`` chunks in bytes, the
    #: size gate and the split threshold in bytes, and ``salt`` through
    #: its splitmix round.
    probe_bytes: float = field(init=False, repr=False, compare=False)
    cliff_gate_bytes: int = field(init=False, repr=False, compare=False)
    split_threshold_bytes: float = field(init=False, repr=False, compare=False)
    salt_mix: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        if self.probe_items <= 0:
            raise ConfigurationError("probe_items must be positive")
        if self.credit_bytes <= 0:
            raise ConfigurationError("credit_bytes must be positive")
        object.__setattr__(
            self, "probe_bytes", float(self.probe_items * self.chunk_size)
        )
        object.__setattr__(
            self,
            "cliff_gate_bytes",
            self.min_queue_items_for_cliff * self.chunk_size,
        )
        object.__setattr__(
            self,
            "split_threshold_bytes",
            self.split_threshold_probes * self.probe_bytes,
        )
        object.__setattr__(self, "salt_mix", premix_salt(self.salt))


def chunk_limit(capacity: float, chunk: int) -> int:
    """The most ``chunk``-byte items ``capacity`` bytes hold: the largest
    ``n`` with ``n * chunk <= capacity``. Exact, where ``int(capacity /
    chunk)`` is not: the float division can round up to the next
    integer."""
    return int(capacity) // chunk


class _Partition:
    """One physical partition: ``[ main | tail | cliff | hill ]`` as four
    insertion-ordered key sets (LRU first, MRU last), each with a byte
    capacity and the whole-chunk limit it implies."""

    def __init__(self, config: CliffConfig) -> None:
        self.chunk = config.chunk_size
        self.probe_bytes = config.probe_bytes
        self.main: "OrderedDict[object, None]" = OrderedDict()
        self.tail: "OrderedDict[object, None]" = OrderedDict()
        self.cliff: "OrderedDict[object, None]" = OrderedDict()
        self.hill: "OrderedDict[object, None]" = OrderedDict()
        self.sets = (self.main, self.tail, self.cliff, self.hill)
        #: Byte capacities, in segment order.
        self.capacity = [0.0, 0.0, self.probe_bytes, 0.0]
        self.main_limit = self.tail_limit = self.hill_limit = 0
        self.cliff_limit = chunk_limit(self.probe_bytes, self.chunk)

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------

    def physical_len(self) -> int:
        return len(self.main) + len(self.tail)

    def segments(self) -> List[Tuple[float, List[object]]]:
        """``(capacity bytes, keys MRU first)`` per segment, main first."""
        return [
            (capacity, list(reversed(keys)))
            for capacity, keys in zip(self.capacity, self.sets)
        ]

    def check_invariants(self) -> None:
        """Raise :class:`CacheError` if a key sits in two segments or a
        limit disagrees with its capacity or is exceeded."""
        limits = (
            self.main_limit, self.tail_limit, self.cliff_limit,
            self.hill_limit,
        )
        seen: set = set()
        for capacity, limit, keys in zip(self.capacity, limits, self.sets):
            if limit != chunk_limit(capacity, self.chunk):
                raise CacheError(f"limit {limit} for {capacity} bytes")
            if len(keys) > limit:
                raise CacheError(f"{len(keys)} keys over limit {limit}")
            if not seen.isdisjoint(keys):
                raise CacheError("a key sits in two segments")
            seen.update(keys)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def discard(self, key: object) -> Optional[int]:
        """Remove ``key``; the index of the segment it was in, or None."""
        main, tail, cliff, hill = self.sets
        if key in main:
            del main[key]
            return SEG_MAIN
        if key in tail:
            del tail[key]
            return SEG_TAIL
        if key in cliff:
            del cliff[key]
            return SEG_CLIFF
        if key in hill:
            del hill[key]
            return SEG_HILL
        return None

    def set_physical(self, physical_bytes: float) -> int:
        """Resize the physical region, keeping the tail probe at its
        configured width (shrinking it only when the whole partition is
        smaller than one probe). Returns how many items that evicts."""
        probe = self.probe_bytes
        tail_bytes = physical_bytes if physical_bytes < probe else probe
        main_bytes = physical_bytes - tail_bytes
        self.capacity[SEG_MAIN] = main_bytes
        self.capacity[SEG_TAIL] = tail_bytes
        # chunk_limit, inline. Every segment is within its limit between
        # operations, so unless a limit shrank there is nothing to move.
        chunk = self.chunk
        main_limit = int(main_bytes) // chunk
        tail_limit = int(tail_bytes) // chunk
        shrank = main_limit < self.main_limit or tail_limit < self.tail_limit
        self.main_limit = main_limit
        self.tail_limit = tail_limit
        return self._cascade() if shrank else 0

    def set_hill(self, hill_bytes: float) -> None:
        """Resize the hill shadow; only it can be over its new limit."""
        self.capacity[SEG_HILL] = hill_bytes
        self.hill_limit = limit = int(hill_bytes) // self.chunk
        hill = self.hill
        while len(hill) > limit:
            hill.popitem(False)

    def _cascade(self) -> int:
        """Move each over-full segment's LRU keys to the MRU end of the
        next (off the end after the hill shadow). Keys only move down, so
        the number leaving the tail probe -- the return value -- is
        exactly the drop in :meth:`physical_len`. (``popitem(False)``
        pops the LRU end; positional, it is the cheaper call.)"""
        main, tail, cliff, hill = self.sets
        limit = self.main_limit
        while len(main) > limit:
            tail[main.popitem(False)[0]] = None
        held = len(tail)
        limit = self.tail_limit
        while len(tail) > limit:
            cliff[tail.popitem(False)[0]] = None
        limit = self.cliff_limit
        while len(cliff) > limit:
            hill[cliff.popitem(False)[0]] = None
        limit = self.hill_limit
        while len(hill) > limit:
            hill.popitem(False)
        return held - len(tail)


class CliffhangerQueue:
    """One logical queue under the combined Cliffhanger structure.

    Always partitioned: with cliff scaling inactive (disabled, or queue
    under the 1000-item threshold) the pointers stay pinned at the
    operating point, giving the even split that is behaviorally identical
    to a single queue. Capacities are bytes; every item weighs one chunk.

    :attr:`capacity_bytes` is a plain attribute (the climber reads it per
    donor); only :meth:`set_capacity` writes it.
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
        self.capacity_bytes = size = float(capacity_bytes)
        #: Whether cliff scaling runs at the current size; only
        #: :meth:`set_capacity` refreshes it.
        self.cliff_active = (
            enable_cliff_scaling and size >= config.cliff_gate_bytes
        )
        # Algorithm 2, INIT: ratio = 1/2, both pointers at queue.size.
        self.left_pointer = size
        self.right_pointer = size
        self.ratio = 0.5
        self.left = _Partition(config)
        self.right = _Partition(config)
        self._pending_resize = False
        # Lazy splitting: the queue runs unpartitioned until the right
        # pointer has escaped far enough to evidence a cliff (see
        # _pointer_event); it merges back with hysteresis. Only ever
        # True while cliff_active, so the request path tests it alone.
        self._split = False
        #: Whether the queue has ever split. Until it has, no key was
        #: routed left, so the left partition is empty and the request
        #: path does not search it; only _update_split_state sets it.
        self._left_used = False
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
    def used_bytes(self) -> float:
        held = self.left.physical_len() + self.right.physical_len()
        return float(held * self.config.chunk_size)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def access(self, key: object) -> int:
        """GET path; returns an ``ACCESS_*`` code. Hits promote (migrating
        to the routed partition when the ratio re-routed the key since it
        was stored); shadow finds remove the key and report, leaving
        insertion to the caller.

        One pass of membership tests looks for the key, the routed
        partition's segments first. The hit-rate EMA update and
        :meth:`_Partition.push` are written inline, and so is the one
        step of :meth:`_Partition._cascade` a hit from the routed
        partition's own tail probe can need; a key that migrates from the
        other partition gets the whole cascade.
        """
        self._requests_seen += 1
        # Unsplit regimes (below the size gate, or no cliff evidence yet)
        # keep everything in the right partition: splitting a queue that
        # does not need it costs accuracy to hash-thinning noise, which
        # is why the paper only runs cliff scaling on large queues
        # (section 5.1). See _pointer_event for the split trigger.
        split = self._split
        if split and routing_hash(key, self.config.salt_mix) < self.ratio:
            routed = self.left
        else:
            routed = self.right
        main = routed.main
        if key in main:
            # Promoted in place: no segment's length changes, so there is
            # nothing to push down.
            main.move_to_end(key)
            ema = self._hit_ema_value
            self._hit_ema_value = ema + self._hit_ema_alpha * (1.0 - ema)
            if split and self._requests_seen >= self._split_eval_due:
                self._evaluate_split()
            return ACCESS_HIT
        holder = routed
        if key in routed.tail:
            del routed.tail[key]
            segment = SEG_TAIL
        elif key in routed.cliff:
            del routed.cliff[key]
            segment = SEG_CLIFF
        elif key in routed.hill:
            del routed.hill[key]
            segment = SEG_HILL
        elif not self._left_used:
            segment = -1  # routed is the right partition; the left is empty
        else:
            holder = other = self.right if routed is self.left else self.left
            if key in other.main:
                del other.main[key]
                segment = SEG_MAIN
            elif key in other.tail:
                del other.tail[key]
                segment = SEG_TAIL
            elif key in other.cliff:
                del other.cliff[key]
                segment = SEG_CLIFF
            elif key in other.hill:
                del other.hill[key]
                segment = SEG_HILL
            else:
                segment = -1
        if segment < 0:
            hit, result = 0.0, ACCESS_MISS
        elif segment <= SEG_TAIL:
            # Physical hit: promote to the MRU position of the partition
            # the key *now* routes to. Only main can be over its limit.
            main[key] = None
            if len(main) > routed.main_limit:
                if holder is routed:
                    # From routed's own tail: main's LRU key takes the
                    # freed slot, and nothing below moves.
                    routed.tail[main.popitem(False)[0]] = None
                else:
                    routed._cascade()
            if segment == SEG_TAIL and self.cliff_active:
                self._pointer_event(holder, SEG_TAIL)
            hit, result = 1.0, ACCESS_HIT
        else:
            # Shadow find: the key is gone; the caller fills it back.
            if segment == SEG_CLIFF and self.cliff_active:
                self._pointer_event(holder, SEG_CLIFF)
            hit = 0.0
            result = (
                ACCESS_HILL_FIND if segment == SEG_HILL else ACCESS_CLIFF_FIND
            )
        ema = self._hit_ema_value
        self._hit_ema_value = ema + self._hit_ema_alpha * (hit - ema)
        if self._split and self._requests_seen >= self._split_eval_due:
            self._evaluate_split()
        return result

    def fill(self, key: object, weight: float = 0.0) -> int:
        """GET-miss fill: store ``key``, which the preceding :meth:`access`
        left in no segment, so nothing is searched or purged. Applies any
        pending repartition first (section 5.1: resize only on a miss).
        Returns physical evictions: with the repartition applied both
        partitions sit within their limits, so the routed one's cascade
        is the only thing that can push an entry out of physical memory.
        ``weight`` is the queue protocol's (:mod:`repro.core.managed`);
        every item here weighs one chunk.

        :meth:`_decay_pointers`' common branches -- zero the stale count
        while both pointers sit at the operating point, else count one
        more stale miss -- and :meth:`_Partition._cascade` are written
        inline. Every segment is within its limit before the push, so at
        most one key crosses each boundary.
        """
        if self.cliff_active:
            size = self.capacity_bytes
            if self.right_pointer == size and self.left_pointer == size:
                self._stale_misses = 0
            elif self._stale_misses + 1 < self.config.stale_miss_limit:
                self._stale_misses += 1
            else:
                self._decay_pointers()  # the miss that resets the search
        if self._pending_resize:
            self._apply_partition_targets()
        routed = self.right  # routed as in access()
        if self._split and routing_hash(key, self.config.salt_mix) < self.ratio:
            routed = self.left
        main = routed.main
        main[key] = None
        if len(main) <= routed.main_limit:
            return 0
        tail = routed.tail
        tail[main.popitem(False)[0]] = None
        if len(tail) <= routed.tail_limit:
            return 0
        cliff = routed.cliff
        cliff[tail.popitem(False)[0]] = None
        if len(cliff) > routed.cliff_limit:
            hill = routed.hill
            hill[cliff.popitem(False)[0]] = None
            if len(hill) > routed.hill_limit:
                hill.popitem(False)
        return 1

    def insert(self, key: object, weight: float = 0.0) -> int:
        """SET path: :meth:`fill` for a key any segment may hold, in one
        frame. The stale-pointer count and the pending repartition come
        first, as in :meth:`fill`; then the key is purged -- after the
        repartition, whose cascade must see it where it is -- from the
        routed partition's segments, or from the other partition's when
        the routed one does not hold it (a key sits in at most one
        segment of the queue). The store is :meth:`fill`'s: the purge
        only shrank segments, so every one is within its limit before
        the push and at most one key crosses each boundary.
        """
        if self.cliff_active:
            size = self.capacity_bytes
            if self.right_pointer == size and self.left_pointer == size:
                self._stale_misses = 0
            elif self._stale_misses + 1 < self.config.stale_miss_limit:
                self._stale_misses += 1
            else:
                self._decay_pointers()  # the miss that resets the search
        if self._pending_resize:
            self._apply_partition_targets()
        routed = other = self.right
        if self._split and routing_hash(key, self.config.salt_mix) < self.ratio:
            routed = self.left
        else:
            other = self.left
        main = routed.main
        if key in main:
            del main[key]
        elif key in routed.tail:
            del routed.tail[key]
        elif key in routed.cliff:
            del routed.cliff[key]
        elif key in routed.hill:
            del routed.hill[key]
        elif not self._left_used:
            pass  # routed is the right partition; the left is empty
        elif key in other.main:
            del other.main[key]
        elif key in other.tail:
            del other.tail[key]
        elif key in other.cliff:
            del other.cliff[key]
        elif key in other.hill:
            del other.hill[key]
        # fill's ladder, written out again: a shared helper would cost a
        # Python call per store on both paths.
        main[key] = None
        if len(main) <= routed.main_limit:
            return 0
        tail = routed.tail
        tail[main.popitem(False)[0]] = None
        if len(tail) <= routed.tail_limit:
            return 0
        cliff = routed.cliff
        cliff[tail.popitem(False)[0]] = None
        if len(cliff) > routed.cliff_limit:
            hill = routed.hill
            hill[cliff.popitem(False)[0]] = None
            if len(hill) > routed.hill_limit:
                hill.popitem(False)
        return 1

    def remove(self, key: object) -> bool:
        """DELETE path: purge ``key``; True only when it was in physical
        memory (main or tail probe). A key sits in at most one segment of
        the queue, so the search stops at the first partition that held
        it, the right one (all of an unsplit queue) first, and never
        reaches the left one of a queue that has never split."""
        segment = self.right.discard(key)
        if segment is None and self._left_used:
            segment = self.left.discard(key)
        return segment is not None and segment <= SEG_TAIL

    def check_invariants(self) -> None:
        """Raise :class:`CacheError` if either partition breaks its
        invariants (:meth:`_Partition.check_invariants`) or a key sits in
        both partitions."""
        held = set()
        for partition in (self.left, self.right):
            partition.check_invariants()
            keys = [key for _, segment in partition.segments() for key in segment]
            if not held.isdisjoint(keys):
                raise CacheError("a key sits in both partitions")
            held.update(keys)

    # ------------------------------------------------------------------
    # Algorithm 2: pointer updates
    # ------------------------------------------------------------------

    def _pointer_event(self, partition: _Partition, segment: int) -> None:
        if not self.cliff_active:
            return
        credit = self.config.credit_bytes
        size = self.capacity_bytes
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
        # An unsplit queue's targets are (0, size) wherever its pointers
        # sit: a move that leaves it unsplit changes no ratio or target.
        # It splits once the right pointer has cleared the threshold and
        # the back-off ran out (_update_split_state's test, inline).
        if self._split or (
            self.right_pointer - size >= self.config.split_threshold_bytes
            and self._requests_seen >= self._split_backoff_until
        ):
            self._update_split_state()
            self._recompute_ratio()

    def _evaluate_split(self) -> None:
        """The due split evaluation: revert a split whose hit-rate EMA
        fell more than the margin below its pre-split baseline."""
        baseline = self._split_baseline
        if baseline is None:
            return
        if self._hit_ema_value < baseline - SPLIT_REGRESSION_MARGIN:
            self._revert_split()
        else:
            # Keep monitoring against the pre-split baseline: the damage
            # of a mis-anchored split can build up slowly as lazy
            # repartitions apply.
            self._split_eval_due = (
                self._requests_seen + self.config.split_eval_requests
            )

    def _revert_split(self) -> None:
        """Undo a split judged harmful and back off exponentially."""
        self._split = False
        self.merges += 1
        self.left_pointer = self.capacity_bytes
        self.right_pointer = self.capacity_bytes
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
        size = self.capacity_bytes
        if self.right_pointer == size and self.left_pointer == size:
            self._stale_misses = 0
            return
        self._stale_misses += 1
        if self._stale_misses < self.config.stale_miss_limit:
            return
        self._stale_misses = 0
        self.right_pointer = size
        self.left_pointer = size
        # Unsplit, the reset moves no target (see _pointer_event).
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
        distance_right = self.right_pointer - self.capacity_bytes
        if not self._split:
            if (
                distance_right >= self.config.split_threshold_bytes
                and self._requests_seen >= self._split_backoff_until
            ):
                self._split = self._left_used = True
                self.splits += 1
                self.left_pointer = self.capacity_bytes
                self._split_baseline = self._hit_ema_value
                self._split_eval_due = (
                    self._requests_seen + self.config.split_eval_requests
                )
        elif distance_right < self.config.probe_bytes:
            self._split = False
            self.merges += 1
            self.left_pointer = self.capacity_bytes
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
            self.capacity_bytes, self.left_pointer, self.right_pointer
        )

    def _recompute_ratio(self) -> None:
        self.ratio = self._effective_ratio()
        if self.config.resize_on_miss:
            self._pending_resize = True
        else:
            self._apply_partition_targets()

    def _apply_partition_targets(self) -> int:
        """Algorithm 3, UPDATEPHYSICALQUEUES, normalized to the budget:
        resize both partitions to their targets; returns evictions.

        ``left = leftPointer * ratio`` and ``right = rightPointer *
        (1 - ratio)`` sum exactly to the operating point whenever both
        pointers have left it (the Talus identity); while only one pointer
        has moved the raw sum can exceed the budget, so we rescale
        proportionally -- a budget-safety correction to the paper's
        pseudocode. While the queue is unsplit everything belongs to the
        right partition. The hill shadow is shared in proportion to the
        targets.
        """
        size = self.capacity_bytes
        if self._split:  # only ever True while cliff_active
            left_raw = self.left_pointer * self.ratio
            right_raw = self.right_pointer * (1.0 - self.ratio)
            total = left_raw + right_raw
            if total <= 0:
                left_target = right_target = size / 2.0
            else:
                scale = size / total
                left_target = left_raw * scale
                right_target = right_raw * scale
        else:
            left_target, right_target = 0.0, size
        left, right = self.left, self.right
        evicted = left.set_physical(left_target)
        evicted += right.set_physical(right_target)
        hill = self.config.hill_shadow_bytes
        if size > 0:
            left.set_hill(hill * left_target / size)
            right.set_hill(hill * right_target / size)
        else:
            left.set_hill(hill / 2.0)
            right.set_hill(hill / 2.0)
        self._pending_resize = False
        self.repartitions += 1
        return evicted

    # ------------------------------------------------------------------
    # Hill-climbing integration
    # ------------------------------------------------------------------

    def grow(self, nbytes: float) -> bool:
        """Start-up growth: add ``nbytes`` of capacity when the physical
        region has less than ``nbytes`` free; return whether it grew. The
        held bytes are :attr:`used_bytes`, added up inline."""
        left, right = self.left, self.right
        held = len(left.main) + len(left.tail) + len(right.main) + len(right.tail)
        if held * self.config.chunk_size + nbytes <= self.capacity_bytes:
            return False
        self.set_capacity(self.capacity_bytes + nbytes)
        return True

    def set_capacity(self, capacity_bytes: float) -> int:
        """Resize the whole logical queue (Algorithm 1 moves memory here).

        Pointers are clamped to keep ``left <= size <= right`` and the
        partitions are resized immediately so byte accounting stays exact.
        Returns the items evicted from physical memory.

        The size gate, the clamps and the ratio are written inline. A
        queue unsplit before and after, with no repartition pending,
        resizes only its right partition: the left one holds no physical
        bytes, and its hill share moves only when the size reaches or
        leaves zero.
        """
        if capacity_bytes < 0:
            raise ConfigurationError("capacity must be >= 0")
        old_size = self.capacity_bytes
        was_split = self._split
        size = self.capacity_bytes = float(capacity_bytes)
        config = self.config
        if self.enable_cliff_scaling and size >= config.cliff_gate_bytes:
            self.cliff_active = True
            if self.left_pointer > size:
                self.left_pointer = size
            if self.right_pointer < size:
                self.right_pointer = size
            # Unsplit, _update_split_state acts only once the right
            # pointer has cleared the threshold and the back-off ran out.
            if self._split or (
                self.right_pointer - size >= config.split_threshold_bytes
                and self._requests_seen >= self._split_backoff_until
            ):
                self._update_split_state()
        else:
            self.cliff_active = False
            self.left_pointer = self.right_pointer = size
            self._split = False
        if (
            self._split
            or was_split
            or self._pending_resize
            or (old_size > 0) != (size > 0)
        ):
            self.ratio = (
                compute_ratio(size, self.left_pointer, self.right_pointer)
                if self._split
                else 0.5
            )
            return self._apply_partition_targets()
        # Unsplit throughout: the ratio is already 1/2, and only the
        # right partition's target moved: (size, hill * size / size), or
        # (0, hill / 2) at zero. Its hill share was set from the old size
        # the same way, so an unchanged share is not set again.
        right = self.right
        evicted = right.set_physical(size)
        if size > 0:
            hill = config.hill_shadow_bytes
            share = hill * size / size
            if share != hill * old_size / old_size:
                right.set_hill(share)
        self.repartitions += 1
        return evicted
