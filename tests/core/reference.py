"""The naive reference the Cliffhanger queue is compared against.

:class:`ReferenceQueue` keeps the structure the queue was built on before
its partitions became whole-chunk segments: a :class:`QueueChain` of four
byte-weighted :class:`KeyQueue` segments per partition, resized one
segment (and one cascade) at a time. It answers :meth:`access` and
:meth:`insert` the long way round -- every hit is a remove plus an
insert plus a full cascade, and evictions are counted by measuring
physical memory before and after -- on chains whose cascade drains
:meth:`KeyQueue.overflow` segment by segment. Pointer search, split
evaluation and repartitioning are inherited: they are what the request
path feeds, not what it is.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from tests.cache.keyqueue import KeyQueue
from repro.common.errors import CacheError, ConfigurationError
from repro.common.hashing import unit_interval_hash
from repro.core.cliff_scaling import (
    ACCESS_CLIFF_FIND,
    ACCESS_HILL_FIND,
    ACCESS_HIT,
    ACCESS_MISS,
    SEG_CLIFF,
    SEG_HILL,
    SEG_MAIN,
    SEG_TAIL,
    CliffConfig,
    CliffhangerQueue,
)


class QueueChain:
    """A cascade of :class:`KeyQueue` segments behaving as one LRU queue.

    Segment 0 is the hottest (front of the combined queue). On a hit
    anywhere in the chain the key is promoted to the front of segment 0;
    overflow then cascades: the LRU entry of segment *i* is pushed onto the
    front of segment *i+1*, and entries overflowing the final segment are
    dropped. Only the *first* ``physical_segments`` segments count as
    holding real memory; the rest are shadow (key-only) extensions.
    """

    def __init__(
        self, segments: List[KeyQueue], physical_segments: int = 1
    ) -> None:
        if not segments:
            raise ConfigurationError("chain needs at least one segment")
        if not 0 <= physical_segments <= len(segments):
            raise ConfigurationError(
                f"physical_segments {physical_segments} out of range for "
                f"{len(segments)} segments"
            )
        names = [segment.name for segment in segments]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate segment names: {names}")
        self.segments = segments
        self.physical_segments = physical_segments
        self._locator: dict = {}
        for idx, segment in enumerate(segments):
            for key in segment.keys_mru_to_lru():
                if key in self._locator:
                    raise ConfigurationError(
                        f"key {key!r} present in two segments"
                    )
                self._locator[key] = idx

    def __len__(self) -> int:
        return len(self._locator)

    def __contains__(self, key: object) -> bool:
        return key in self._locator

    def segment_of(self, key: object) -> Optional[int]:
        """Index of the segment holding ``key``, or None."""
        return self._locator.get(key)

    def physical_len(self) -> int:
        return sum(
            len(segment)
            for segment in self.segments[: self.physical_segments]
        )

    def access(self, key: object) -> Optional[int]:
        """Return the segment index ``key`` was found in (then promote it
        to the front of segment 0), or None on a complete miss."""
        idx = self._locator.get(key)
        if idx is not None:
            weight = self.segments[idx].remove(key)
            self.segments[0].push_front(key, weight)
            self._locator[key] = 0
            self._cascade()
        return idx

    def insert(self, key: object, weight: float) -> int:
        """Insert a key at the front; return how many entries that pushed
        out of physical memory. Re-inserting a key refreshes its weight."""
        old_idx = self._locator.get(key)
        if old_idx is not None:
            self.segments[old_idx].remove(key)
        self.segments[0].push_front(key, weight)
        self._locator[key] = 0
        return self._cascade()

    def remove(self, key: object) -> bool:
        """Remove ``key`` from wherever it lives. Returns True if present."""
        idx = self._locator.pop(key, None)
        if idx is None:
            return False
        self.segments[idx].remove(key)
        return True

    def resize_segment(self, index: int, capacity: float) -> int:
        """Resize one segment and cascade; return how many entries that
        pushed out of physical memory."""
        self.segments[index].resize(capacity)
        return self._cascade()

    def _cascade(self) -> int:
        """Move each over-full segment's LRU entries onto the front of
        the next (off the chain after the last); return how many left
        the last physical segment."""
        crossed = 0
        segments = self.segments
        last = len(segments) - 1
        locator = self._locator
        for idx, segment in enumerate(segments):
            if segment._used <= segment._capacity:
                continue
            entries = segment._entries
            held = len(entries)
            below = segments[idx + 1] if idx < last else None
            while entries and segment._used > segment._capacity:
                key, weight = entries.popitem()
                segment._used -= weight
                if below is None:
                    del locator[key]
                else:
                    below._entries[key] = weight
                    below._entries.move_to_end(key, last=False)
                    below._used += weight
                    locator[key] = idx + 1
            if idx == self.physical_segments - 1:
                crossed = held - len(entries)
        return crossed

    def check_invariants(self) -> None:
        """Raise :class:`CacheError` if internal bookkeeping diverged."""
        seen = {}
        for idx, segment in enumerate(self.segments):
            recomputed = 0.0
            for key in segment.keys_mru_to_lru():
                if key in seen:
                    raise CacheError(
                        f"key {key!r} in segments {seen[key]} and {idx}"
                    )
                seen[key] = idx
                recomputed += segment.weight_of(key)
            if abs(recomputed - segment.used) > 1e-6:
                raise CacheError(
                    f"segment {segment.name!r} used={segment.used} but "
                    f"entries sum to {recomputed}"
                )
            if segment.used - segment.capacity > 1e-6:
                raise CacheError(
                    f"segment {segment.name!r} over capacity after cascade"
                )
        if seen != self._locator:
            raise CacheError("locator map diverged from segment contents")


class NaiveChain(QueueChain):
    """A chain that cascades through the segments' public methods and
    counts what left physical memory by looking."""

    def _cascade(self) -> int:
        before = self.physical_len()
        last = len(self.segments) - 1
        for idx, segment in enumerate(self.segments):
            for key, weight in segment.overflow():
                if idx == last:
                    del self._locator[key]
                else:
                    self.segments[idx + 1].push_front(key, weight)
                    self._locator[key] = idx + 1
        return before - self.physical_len()


class ReferencePartition:
    """A partition as four byte-weighted segments on a :class:`NaiveChain`,
    answering the read surface of the queue's own partitions."""

    def __init__(self, config: CliffConfig, capacities: List[float]) -> None:
        self.config = config
        self.main, self.tail, self.cliff, self.hill = (
            KeyQueue(capacity, name=name)
            for capacity, name in zip(
                capacities, ("main", "tail", "cliff", "hill")
            )
        )
        self.chain = NaiveChain(
            [self.main, self.tail, self.cliff, self.hill],
            physical_segments=2,
        )

    @property
    def physical_capacity(self) -> float:
        return self.main.capacity + self.tail.capacity

    def physical_len(self) -> int:
        return self.chain.physical_len()

    def segment_of(self, key: object) -> Optional[int]:
        return self.chain.segment_of(key)

    def segments(self) -> List[Tuple[float, List[object]]]:
        return [
            (segment.capacity, list(segment.keys_mru_to_lru()))
            for segment in self.chain.segments
        ]

    def check_invariants(self) -> None:
        self.chain.check_invariants()

    def discard(self, key: object) -> Optional[int]:
        index = self.chain.segment_of(key)
        self.chain.remove(key)
        return index

    def set_physical(self, physical_bytes: float) -> int:
        """Tail probe first, then main: one cascade per segment."""
        tail_bytes = min(self.config.probe_bytes, physical_bytes)
        evicted = self.chain.resize_segment(SEG_TAIL, tail_bytes)
        main_bytes = physical_bytes - tail_bytes
        return evicted + self.chain.resize_segment(SEG_MAIN, main_bytes)

    def set_hill(self, hill_bytes: float) -> None:
        self.chain.resize_segment(SEG_HILL, hill_bytes)


class ReferenceQueue(CliffhangerQueue):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.left, self.right = (
            ReferencePartition(
                self.config,
                [capacity for capacity, _ in partition.segments()],
            )
            for partition in (self.left, self.right)
        )

    def _route(self, key):
        """``(routed, other)`` partitions for ``key``."""
        if (
            self.cliff_active
            and self._split
            and unit_interval_hash(key, self.config.salt) < self.ratio
        ):
            return self.left, self.right
        return self.right, self.left

    def _observe_hit(self, hit: bool) -> None:
        """Update the hit-rate EMA and run any due split evaluation (what
        :meth:`CliffhangerQueue.access` does inline)."""
        self._hit_ema_value += self._hit_ema_alpha * (
            (1.0 if hit else 0.0) - self._hit_ema_value
        )
        if self._split and self._requests_seen >= self._split_eval_due:
            self._evaluate_split()

    def _physical_len(self) -> int:
        return self.left.physical_len() + self.right.physical_len()

    def _is_physical(self, key: object) -> bool:
        return any(
            partition.segment_of(key) in (SEG_MAIN, SEG_TAIL)
            for partition in (self.left, self.right)
        )

    def access(self, key: object) -> int:
        self._requests_seen += 1
        routed, other = self._route(key)
        holder = routed
        segment = routed.segment_of(key)
        if segment is None:
            holder = other
            segment = other.segment_of(key)
        if segment is None:
            self._observe_hit(False)
            return ACCESS_MISS
        holder.chain.remove(key)
        if segment in (SEG_MAIN, SEG_TAIL):
            routed.chain.insert(key, self.config.chunk_size)
            if segment == SEG_TAIL:
                self._pointer_event(holder, SEG_TAIL)
            self._observe_hit(True)
            return ACCESS_HIT
        if segment == SEG_CLIFF:
            self._pointer_event(holder, SEG_CLIFF)
        self._observe_hit(False)
        return ACCESS_HILL_FIND if segment == SEG_HILL else ACCESS_CLIFF_FIND

    def insert(self, key: object) -> int:
        self._decay_pointers()
        if self._pending_resize:
            self._apply_partition_targets()
        routed, other = self._route(key)
        added = 0 if self._is_physical(key) else 1
        before = self._physical_len()
        other.chain.remove(key)
        routed.chain.insert(key, self.config.chunk_size)
        return max(0, before + added - self._physical_len())
