"""Adaptive Replacement Cache (Megiddo & Modha, FAST 2003).

ARC is the LRU/LFU hybrid the paper compares against in section 5.5 ("We
found that ARC did not provide any hit rate improvement in any of the
applications of the Memcachier trace"). It keeps four lists:

* ``T1`` -- resident keys seen exactly once recently (recency list);
* ``T2`` -- resident keys seen at least twice recently (frequency list);
* ``B1``/``B2`` -- ghost (key-only) extensions of T1/T2.

The adaptation target ``p`` is the desired byte size of T1; ghost hits in
B1 grow ``p`` (favoring recency) and ghost hits in B2 shrink it (favoring
frequency). The original algorithm is defined for unit-size pages; this
implementation generalizes it to weighted items by adapting ``p`` in byte
units, which is the standard generalization used by weighted-ARC variants.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

from repro.common.errors import CacheError
from repro.cache.policies.base import Evicted, EvictionPolicy


class ARCPolicy(EvictionPolicy):
    """Weighted ARC. Ghost lists store keys with the bytes they stood for.

    Each list is an ordered dict of key -> weight, MRU first, with its
    byte total beside it; the totals move as in
    :class:`~repro.cache.policies.lru.LRUPolicy`.
    """

    kind = "arc"

    def __init__(self, capacity: float, name: str = "") -> None:
        super().__init__(capacity, name)
        self._t1: "OrderedDict[object, float]" = OrderedDict()
        self._t2: "OrderedDict[object, float]" = OrderedDict()
        self._b1: "OrderedDict[object, float]" = OrderedDict()
        self._b2: "OrderedDict[object, float]" = OrderedDict()
        self._t1_used = self._t2_used = self._b1_used = self._b2_used = 0.0
        self._p = 0.0  # target byte size of T1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def used(self) -> float:
        return self._t1_used + self._t2_used

    @property
    def p(self) -> float:
        """Current recency target in bytes (exposed for tests/plots)."""
        return self._p

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def __contains__(self, key: object) -> bool:
        return key in self._t1 or key in self._t2

    def keys(self) -> Iterator[object]:
        yield from self._t1
        yield from self._t2

    def ghost_contains(self, key: object) -> bool:
        return key in self._b1 or key in self._b2

    # ------------------------------------------------------------------
    # Core ARC machinery
    # ------------------------------------------------------------------

    def _evict(self) -> Evicted:
        """Demote LRU residents into their ghost lists until T1 + T2 fit
        the capacity, then bound |T1|+|B1| <= c and the four lists <= 2c
        (in bytes)."""
        c = self.capacity
        t1, t2, b1, b2 = self._t1, self._t2, self._b1, self._b2
        evicted: Evicted = []
        while self._t1_used + self._t2_used > c and (t1 or t2):
            if t1 and (self._t1_used > self._p or not t2):
                victim, weight = t1.popitem()
                self._t1_used -= weight
                b1[victim] = weight
                b1.move_to_end(victim, last=False)
                self._b1_used += weight
            else:
                victim, weight = t2.popitem()
                self._t2_used -= weight
                b2[victim] = weight
                b2.move_to_end(victim, last=False)
                self._b2_used += weight
            evicted.append((victim, weight))
        while b1 and self._t1_used + self._b1_used > c:
            self._b1_used -= b1.popitem()[1]
        total = self._t1_used + self._t2_used + self._b1_used + self._b2_used
        while b2 and total > 2 * c:
            weight = b2.popitem()[1]
            self._b2_used -= weight
            total -= weight
        return evicted

    # ------------------------------------------------------------------
    # EvictionPolicy interface
    # ------------------------------------------------------------------

    def access(self, key: object) -> bool:
        t2 = self._t2
        if key in self._t1:
            weight = self._t1.pop(key)
            self._t1_used -= weight
            t2[key] = weight
            t2.move_to_end(key, last=False)
            self._t2_used += weight
            return True
        if key in t2:
            t2.move_to_end(key, last=False)
            return True
        return False

    #: Every resident key is a hit; the promotion is the same.
    touch = access

    def insert(self, key: object, weight: float) -> Evicted:
        if weight < 0:
            raise CacheError(f"negative weight {weight} for key {key!r}")
        c = self.capacity
        t1, t2 = self._t1, self._t2
        if key in t1:
            # Value refresh of a resident key: update weight in place.
            self._t1_used -= t1[key]
            t1[key] = weight
            t1.move_to_end(key, last=False)
            self._t1_used += weight
            return self._evict()
        if key in t2:
            self._t2_used -= t2[key]  # refreshed in place, as in T1
        elif key in self._b1:
            # Ghost hit favoring recency: grow p.
            b1, b2 = max(self._b1_used, 1.0), self._b2_used
            delta = weight * max(1.0, b2 / b1)
            self._p = min(c, self._p + delta)
            self._b1_used -= self._b1.pop(key)
        elif key in self._b2:
            # Ghost hit favoring frequency: shrink p.
            b1, b2 = self._b1_used, max(self._b2_used, 1.0)
            delta = weight * max(1.0, b1 / b2)
            self._p = max(0.0, self._p - delta)
            self._b2_used -= self._b2.pop(key)
        else:
            t1[key] = weight
            t1.move_to_end(key, last=False)
            self._t1_used += weight
            # _evict may demote the key just pushed (alone in T1 while T2
            # fills the capacity); it is then among the victims returned.
            return self._evict()
        t2[key] = weight
        t2.move_to_end(key, last=False)
        self._t2_used += weight
        return self._evict()

    def remove(self, key: object) -> bool:
        if key in self._t1:
            self._t1_used -= self._t1.pop(key)
            return True
        if key in self._t2:
            self._t2_used -= self._t2.pop(key)
            return True
        # A ghost is forgotten, but it was not resident.
        if key in self._b1:
            self._b1_used -= self._b1.pop(key)
        elif key in self._b2:
            self._b2_used -= self._b2.pop(key)
        return False

    def resize(self, capacity: float) -> Evicted:
        self._set_capacity(capacity)
        self._p = min(self._p, capacity)
        return self._evict()
