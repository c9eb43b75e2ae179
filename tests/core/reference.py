"""The naive reference the Cliffhanger queue's request path is compared
against: :class:`ReferenceQueue` answers :meth:`access` and
:meth:`insert` the long way round -- every hit is a remove plus an
insert plus a full cascade, and evictions are counted by measuring
physical memory before and after -- on chains whose cascade drains
:meth:`KeyQueue.overflow` segment by segment. Pointer search, split
evaluation and repartitioning are inherited: they are what the request
path feeds, not what it is."""

from __future__ import annotations

from repro.cache.keyqueue import QueueChain
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
    CliffhangerQueue,
)


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


class ReferenceQueue(CliffhangerQueue):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for partition in (self.left, self.right):
            partition.chain = NaiveChain(
                partition.chain.segments, physical_segments=2
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

    def _physical_len(self) -> int:
        return self.left.chain.physical_len() + self.right.chain.physical_len()

    def _is_physical(self, key: object) -> bool:
        return any(
            partition.chain.segment_of(key) in (SEG_MAIN, SEG_TAIL)
            for partition in (self.left, self.right)
        )

    def access(self, key: object) -> int:
        self._requests_seen += 1
        routed, other = self._route(key)
        holder = routed
        segment = routed.chain.segment_of(key)
        if segment is None:
            holder = other
            segment = other.chain.segment_of(key)
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
