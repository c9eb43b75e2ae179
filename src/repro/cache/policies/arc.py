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

from typing import Iterator

from repro.cache.keyqueue import KeyQueue
from repro.cache.policies.base import Evicted, EvictionPolicy


class ARCPolicy(EvictionPolicy):
    """Weighted ARC. Ghost lists store keys with the bytes they stood for."""

    kind = "arc"

    def __init__(self, capacity: float, name: str = "") -> None:
        super().__init__(capacity, name)
        self._t1 = KeyQueue(float("inf"), name=f"{name}/T1")
        self._t2 = KeyQueue(float("inf"), name=f"{name}/T2")
        self._b1 = KeyQueue(float("inf"), name=f"{name}/B1")
        self._b2 = KeyQueue(float("inf"), name=f"{name}/B2")
        self._p = 0.0  # target byte size of T1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def used(self) -> float:
        return self._t1.used + self._t2.used

    @property
    def p(self) -> float:
        """Current recency target in bytes (exposed for tests/plots)."""
        return self._p

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def __contains__(self, key: object) -> bool:
        return key in self._t1 or key in self._t2

    def keys(self) -> Iterator[object]:
        yield from self._t1.keys_mru_to_lru()
        yield from self._t2.keys_mru_to_lru()

    def ghost_contains(self, key: object) -> bool:
        return key in self._b1 or key in self._b2

    # ------------------------------------------------------------------
    # Core ARC machinery
    # ------------------------------------------------------------------

    def _replace(self, key_in_b2: bool, evicted: Evicted) -> None:
        """Demote one resident item into the matching ghost list."""
        t1_used = self._t1.used
        if len(self._t1) > 0 and (
            t1_used > self._p or (key_in_b2 and t1_used >= self._p)
        ):
            victim, weight = self._t1.pop_back()
            self._b1.push_front(victim, weight)
            evicted.append((victim, weight))
        elif len(self._t2) > 0:
            victim, weight = self._t2.pop_back()
            self._b2.push_front(victim, weight)
            evicted.append((victim, weight))
        elif len(self._t1) > 0:
            victim, weight = self._t1.pop_back()
            self._b1.push_front(victim, weight)
            evicted.append((victim, weight))

    def _trim_ghosts(self) -> None:
        """Bound |L1| <= c and |L1|+|L2| <= 2c (in bytes)."""
        c = self.capacity
        while len(self._b1) > 0 and self._t1.used + self._b1.used > c:
            self._b1.pop_back()
        total = (
            self._t1.used + self._t2.used + self._b1.used + self._b2.used
        )
        while len(self._b2) > 0 and total > 2 * c:
            _, w = self._b2.pop_back()
            total -= w

    # ------------------------------------------------------------------
    # EvictionPolicy interface
    # ------------------------------------------------------------------

    def access(self, key: object) -> bool:
        if key in self._t1:
            weight = self._t1.remove(key)
            self._t2.push_front(key, weight)
            return True
        if key in self._t2:
            weight = self._t2.weight_of(key)
            self._t2.push_front(key, weight)
            return True
        return False

    def insert(self, key: object, weight: float) -> Evicted:
        evicted: Evicted = []
        c = self.capacity
        if key in self._t1 or key in self._t2:
            # Value refresh of a resident key: update weight in place.
            if key in self._t1:
                self._t1.push_front(key, weight)
            else:
                self._t2.push_front(key, weight)
        elif key in self._b1:
            # Ghost hit favoring recency: grow p.
            b1, b2 = max(self._b1.used, 1.0), self._b2.used
            delta = weight * max(1.0, b2 / b1)
            self._p = min(c, self._p + delta)
            self._b1.remove(key)
            self._t2.push_front(key, weight)
        elif key in self._b2:
            # Ghost hit favoring frequency: shrink p.
            b1, b2 = self._b1.used, max(self._b2.used, 1.0)
            delta = weight * max(1.0, b1 / b2)
            self._p = max(0.0, self._p - delta)
            self._b2.remove(key)
            self._t2.push_front(key, weight)
        else:
            self._t1.push_front(key, weight)
        key_in_b2_path = False  # p-biased replace applies pre-insert in
        # the textbook formulation; we demote after insertion, which is
        # equivalent for capacity purposes.
        while self.used > c and (len(self._t1) or len(self._t2)):
            self._replace(key_in_b2_path, evicted)
        # The just-inserted key must stay resident; if _replace demoted it
        # (single-item corner case where weight > capacity), accept that.
        self._trim_ghosts()
        return evicted

    def remove(self, key: object) -> bool:
        for queue in (self._t1, self._t2):
            if key in queue:
                queue.remove(key)
                return True
        for ghost in (self._b1, self._b2):
            if key in ghost:
                ghost.remove(key)  # forgotten, but it was not resident
        return False

    def resize(self, capacity: float) -> Evicted:
        self._set_capacity(capacity)
        self._p = min(self._p, capacity)
        evicted: Evicted = []
        while self.used > capacity and (len(self._t1) or len(self._t2)):
            self._replace(False, evicted)
        self._trim_ghosts()
        return evicted
