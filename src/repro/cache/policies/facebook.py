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

from typing import Iterator

from repro.cache.keyqueue import KeyQueue
from repro.cache.policies.base import Evicted, EvictionPolicy


class FacebookPolicy(EvictionPolicy):
    """Mid-insertion LRU with the protected half on top.

    Items that are never re-referenced only ever travel the bottom of the
    queue before eviction, which protects the hot top half from
    one-hit-wonder churn.
    """

    kind = "facebook"

    def __init__(self, capacity: float, name: str = "") -> None:
        super().__init__(capacity, name)
        self._protected = KeyQueue(capacity * 0.5, name=f"{name}/protected")
        self._probation = KeyQueue(capacity, name=f"{name}/probation")

    # ------------------------------------------------------------------

    @property
    def used(self) -> float:
        return self._protected.used + self._probation.used

    def __len__(self) -> int:
        return len(self._protected) + len(self._probation)

    def __contains__(self, key: object) -> bool:
        return key in self._protected or key in self._probation

    def keys(self) -> Iterator[object]:
        yield from self._protected.keys_mru_to_lru()
        yield from self._probation.keys_mru_to_lru()

    def in_protected(self, key: object) -> bool:
        """True iff the key sits in the protected segment (for tests)."""
        return key in self._protected

    # ------------------------------------------------------------------

    def _cascade(self) -> Evicted:
        """Demote protected overflow to probation, then evict whatever
        leaves the whole queue over capacity."""
        for key, weight in self._protected.overflow():
            self._probation.push_front(key, weight)
        self._probation.resize(self.capacity - self._protected.used)
        return list(self._probation.overflow())

    def access(self, key: object) -> bool:
        if key in self._protected:
            weight = self._protected.weight_of(key)
            self._protected.push_front(key, weight)
            return True
        if key in self._probation:
            weight = self._probation.remove(key)
            self._protected.push_front(key, weight)
            self._cascade()
            return True
        return False

    def insert(self, key: object, weight: float) -> Evicted:
        # A re-SET of a resident key keeps its segment; treat it as a
        # fresh value in the same place with the new weight.
        if key in self._protected:
            self._protected.push_front(key, weight)
        else:
            if key in self._probation:
                self._probation.remove(key)
            self._probation.push_front(key, weight)
        return self._cascade()

    def remove(self, key: object) -> bool:
        if key in self._protected:
            self._protected.remove(key)
            return True
        if key in self._probation:
            self._probation.remove(key)
            return True
        return False

    def resize(self, capacity: float) -> Evicted:
        self._set_capacity(capacity)
        self._protected.resize(capacity * 0.5)
        return self._cascade()
