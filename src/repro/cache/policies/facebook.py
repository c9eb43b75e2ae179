"""Facebook's mid-insertion scheme (paper section 5.5).

"The first time a request hits it is inserted at the middle of the
queue. When it hits a second time, it is inserted to the top of the
queue." The policy models that one queue as two LRU segments around its
midpoint: *protected* (the top half) and *probationary* (everything
below it). New items enter at the front of the probationary segment,
i.e. at the middle of the queue; a hit promotes to the protected
segment; protected overflow demotes back to the front of the
probationary segment.

The probationary segment may use whatever the protected half leaves
free, so an item is evicted only when the whole queue is over capacity:
a queue that holds one item keeps it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

from repro.common.errors import CacheError
from repro.cache.policies.base import Evicted, EvictionPolicy


class FacebookPolicy(EvictionPolicy):
    """Mid-insertion LRU with the protected half on top.

    Items that are never re-referenced only ever travel the bottom of the
    queue before eviction, which protects the hot top half from
    one-hit-wonder churn. Each segment is an ordered dict of key ->
    weight, MRU first, with its byte total beside it; the totals move as
    in :class:`~repro.cache.policies.lru.LRUPolicy`.
    """

    kind = "facebook"

    def __init__(self, capacity: float, name: str = "") -> None:
        super().__init__(capacity, name)
        self._protected: "OrderedDict[object, float]" = OrderedDict()
        self._probation: "OrderedDict[object, float]" = OrderedDict()
        self._protected_used = self._probation_used = 0.0

    # ------------------------------------------------------------------

    @property
    def used(self) -> float:
        return self._protected_used + self._probation_used

    def __len__(self) -> int:
        return len(self._protected) + len(self._probation)

    def __contains__(self, key: object) -> bool:
        return key in self._protected or key in self._probation

    def keys(self) -> Iterator[object]:
        yield from self._protected
        yield from self._probation

    def in_protected(self, key: object) -> bool:
        """True iff the key sits in the protected segment (for tests)."""
        return key in self._protected

    # ------------------------------------------------------------------

    def _cascade(self) -> Evicted:
        """Demote protected overflow (past half the capacity) to the front
        of probation, then evict whatever leaves the whole queue over
        capacity."""
        protected, probation = self._protected, self._probation
        limit = self.capacity * 0.5
        while protected and self._protected_used > limit:
            key, weight = protected.popitem()
            self._protected_used -= weight
            probation[key] = weight
            probation.move_to_end(key, last=False)
            self._probation_used += weight
        room = self.capacity - self._protected_used
        evicted: Evicted = []
        while probation and self._probation_used > room:
            victim = probation.popitem()
            self._probation_used -= victim[1]
            evicted.append(victim)
        return evicted

    def access(self, key: object) -> bool:
        protected = self._protected
        if key in protected:
            protected.move_to_end(key, last=False)
            return True
        if key in self._probation:
            weight = self._probation.pop(key)
            self._probation_used -= weight
            protected[key] = weight
            protected.move_to_end(key, last=False)
            self._protected_used += weight
            self._cascade()
            return True
        return False

    #: Every resident key is a hit; the promotion is the same.
    touch = access

    def insert(self, key: object, weight: float) -> Evicted:
        if weight < 0:
            raise CacheError(f"negative weight {weight} for key {key!r}")
        # A re-SET of a resident key keeps its segment; treat it as a
        # fresh value in the same place with the new weight.
        protected, probation = self._protected, self._probation
        if key in protected:
            self._protected_used -= protected[key]
            protected[key] = weight
            protected.move_to_end(key, last=False)
            self._protected_used += weight
        else:
            if key in probation:
                self._probation_used -= probation[key]
            probation[key] = weight
            probation.move_to_end(key, last=False)
            self._probation_used += weight
        return self._cascade()

    def remove(self, key: object) -> bool:
        if key in self._protected:
            self._protected_used -= self._protected.pop(key)
            return True
        if key in self._probation:
            self._probation_used -= self._probation.pop(key)
            return True
        return False

    def resize(self, capacity: float) -> Evicted:
        self._set_capacity(capacity)
        return self._cascade()
