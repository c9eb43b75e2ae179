"""2Q eviction (Johnson & Shasha, VLDB 1994).

2Q filters one-hit wonders through a small FIFO (``A1in``); keys evicted
from it are remembered in a ghost list (``A1out``). Only a key that misses
while remembered in ``A1out`` is admitted to the main LRU (``Am``) -- i.e.
a key must be re-referenced after leaving the FIFO to prove it is worth
keeping. We use the standard tuning: ``Kin`` = 25% of capacity,
``Kout`` remembers 50% of capacity worth of ghosts.
"""

from __future__ import annotations

from typing import Iterator

from repro.cache.keyqueue import KeyQueue
from repro.cache.policies.base import Evicted, EvictionPolicy


class TwoQPolicy(EvictionPolicy):
    """The full (non-simplified) 2Q algorithm, weighted by bytes."""

    kind = "twoq"

    def __init__(
        self,
        capacity: float,
        name: str = "",
        in_fraction: float = 0.25,
        out_fraction: float = 0.5,
    ) -> None:
        super().__init__(capacity, name)
        self.in_fraction = in_fraction
        self.out_fraction = out_fraction
        self._a1in = KeyQueue(capacity * in_fraction, name=f"{name}/A1in")
        self._am = KeyQueue(
            capacity * (1.0 - in_fraction), name=f"{name}/Am"
        )
        self._a1out = KeyQueue(
            capacity * out_fraction, name=f"{name}/A1out"
        )  # ghost: keys only

    # ------------------------------------------------------------------

    @property
    def used(self) -> float:
        return self._a1in.used + self._am.used

    def __len__(self) -> int:
        return len(self._a1in) + len(self._am)

    def __contains__(self, key: object) -> bool:
        return key in self._a1in or key in self._am

    def keys(self) -> Iterator[object]:
        yield from self._am.keys_mru_to_lru()
        yield from self._a1in.keys_mru_to_lru()

    def ghost_contains(self, key: object) -> bool:
        return key in self._a1out

    # ------------------------------------------------------------------

    def _reclaim(self) -> Evicted:
        """Evict to restore capacity: A1in overflow moves to the ghost
        list (that *is* an eviction); Am overflow is evicted outright."""
        evicted: Evicted = []
        for key, weight in self._a1in.overflow():
            self._a1out.push_front(key, weight)
            evicted.append((key, weight))
        for key, weight in self._am.overflow():
            evicted.append((key, weight))
        # Ghost list is bounded separately; dropping ghosts frees nothing.
        for _ in self._a1out.overflow():
            pass
        return evicted

    def access(self, key: object) -> bool:
        if key in self._am:
            self._am.push_front(key, self._am.weight_of(key))
            return True
        if key in self._a1in:
            # 2Q leaves A1in order untouched on hit (it is a FIFO).
            return True
        return False

    def insert(self, key: object, weight: float) -> Evicted:
        if key in self._am:
            self._am.push_front(key, weight)
        elif key in self._a1in:
            self._a1in.push_front(key, weight)
        elif key in self._a1out:
            # Proven reuse: promote into the main queue.
            self._a1out.remove(key)
            self._am.push_front(key, weight)
        else:
            # FIFO admit: enter at the front, leave from the back.
            self._a1in.push_front(key, weight)
        return self._reclaim()

    def remove(self, key: object) -> bool:
        for queue in (self._a1in, self._am):
            if key in queue:
                queue.remove(key)
                return True
        if key in self._a1out:
            self._a1out.remove(key)  # forgotten, but it was not resident
        return False

    def resize(self, capacity: float) -> Evicted:
        self._set_capacity(capacity)
        self._a1in.resize(capacity * self.in_fraction)
        self._am.resize(capacity * (1.0 - self.in_fraction))
        self._a1out.resize(capacity * self.out_fraction)
        return self._reclaim()
