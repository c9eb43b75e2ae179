"""Weighted ordered key queues and chained queues.

These two classes are the data-structure heart of the reproduction:

* :class:`KeyQueue` is an ordered set of keys with per-key weights and a
  capacity measured in weight units (bytes). MRU is at the *front*, LRU at
  the *back*. It stores keys only -- the simulator never materializes
  values -- so the same class implements both physical eviction queues
  (where the weight accounts for the full item) and shadow queues (where
  the weight still represents the item the key stands for, per the paper's
  "shadow queues that represent 1 MB of requests", section 5.7).

* :class:`QueueChain` chains several :class:`KeyQueue` segments so that a
  key evicted from segment *i* falls onto the front of segment *i+1*. A
  chain whose hits always promote to the front of segment 0 behaves
  *exactly* like a single LRU queue whose size is the sum of the segment
  sizes, while telling the caller which segment every hit landed in. That
  property is what lets Cliffhanger observe "hits in the last 128 items of
  the queue" and "hits in the shadow queue appended after the physical
  queue" (section 5.1) without ever computing item ranks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional, Tuple

from repro.common.errors import CacheError, ConfigurationError


class KeyQueue:
    """An ordered, capacity-bounded set of weighted keys (MRU at front).

    The queue never evicts by itself; callers drain :meth:`overflow` after
    mutating it. This makes cascade semantics in :class:`QueueChain`
    explicit and testable.
    """

    __slots__ = ("name", "_capacity", "_used", "_entries")

    def __init__(self, capacity: float, name: str = "") -> None:
        if capacity < 0:
            raise ConfigurationError(
                f"queue capacity must be >= 0, got {capacity}"
            )
        self.name = name
        self._capacity = float(capacity)
        self._used = 0.0
        self._entries: "OrderedDict[object, float]" = OrderedDict()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def used(self) -> float:
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def weight_of(self, key: object) -> float:
        return self._entries[key]

    def keys_mru_to_lru(self) -> Iterator[object]:
        """Iterate keys from most- to least-recently used."""
        return iter(self._entries)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def push_front(self, key: object, weight: float) -> None:
        """Insert (or move) ``key`` at the MRU end."""
        if weight < 0:
            raise CacheError(f"negative weight {weight} for key {key!r}")
        if key in self._entries:
            self._used -= self._entries[key]
        self._entries[key] = weight
        self._entries.move_to_end(key, last=False)
        self._used += weight

    def remove(self, key: object) -> float:
        """Remove ``key`` and return its weight. KeyError if absent."""
        weight = self._entries.pop(key)
        self._used -= weight
        return weight

    def pop_back(self) -> Tuple[object, float]:
        """Remove and return the LRU entry as ``(key, weight)``."""
        if not self._entries:
            raise CacheError(f"pop from empty queue {self.name!r}")
        key, weight = self._entries.popitem(last=True)
        self._used -= weight
        return key, weight

    def resize(self, capacity: float) -> None:
        """Change capacity; overflow must be drained by the caller."""
        if capacity < 0:
            raise ConfigurationError(
                f"queue capacity must be >= 0, got {capacity}"
            )
        self._capacity = float(capacity)

    def overflow(self) -> Iterator[Tuple[object, float]]:
        """Pop LRU entries while the queue exceeds its capacity.

        An entry heavier than the whole capacity is itself popped, so the
        queue always converges to ``used <= capacity``.
        """
        while self._entries and self._used > self._capacity:
            yield self.pop_back()

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0.0


class QueueChain:
    """A cascade of :class:`KeyQueue` segments behaving as one LRU queue.

    Segment 0 is the hottest (front of the combined queue). On a hit
    anywhere in the chain the key is promoted to the front of segment 0;
    overflow then cascades: the LRU entry of segment *i* is pushed onto the
    front of segment *i+1*, and entries overflowing the final segment are
    dropped.

    Typical Cliffhanger layout for one slab-class queue::

        [ physical main | tail probe | cliff shadow | hill shadow ]
          values "stored"  last 128     128 items      ~1 MB of
                           items                       requests

    Only the *first* ``physical_segments`` segments count as holding real
    memory; the rest are shadow (key-only) extensions. The chain itself is
    agnostic -- callers interpret segment indices.
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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

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

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def touch(self, key: object) -> Optional[int]:
        """Index of the segment holding ``key``, or None. A key found in
        segment 0 also moves to its MRU position -- all a promotion from
        there amounts to, since no segment's usage changes. Deeper finds
        stay put for the caller to :meth:`access` or :meth:`remove`."""
        idx = self._locator.get(key)
        if idx == 0:
            self.segments[0]._entries.move_to_end(key, last=False)
        return idx

    def access(self, key: object) -> Optional[int]:
        """Touch ``key``: return the segment index it was found in (then
        promote it to the front of segment 0), or None on a complete miss.

        The returned index is the *pre-promotion* location, which is what
        the shadow-queue algorithms condition on.
        """
        idx = self.touch(key)
        if idx:
            weight = self.segments[idx].remove(key)
            self.segments[0].push_front(key, weight)
            self._locator[key] = 0
            self._cascade()
        return idx

    def insert(self, key: object, weight: float) -> int:
        """Insert a new key at the front; return how many entries that
        pushed out of physical memory. Re-inserting an existing key
        refreshes its weight."""
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
        the next (off the chain after the last). Entries only move down,
        so the number leaving the last physical segment -- the return
        value -- is exactly the drop in :meth:`physical_len`."""
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
        """Raise :class:`CacheError` if internal bookkeeping diverged.

        Used by the test suite after randomized operation sequences.
        """
        seen = {}
        for idx, segment in enumerate(self.segments):
            recomputed = 0.0
            for key in segment.keys_mru_to_lru():
                if key in seen:
                    raise CacheError(f"key {key!r} in segments {seen[key]} and {idx}")
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
