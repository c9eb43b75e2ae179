"""Least-recently-used eviction, Memcached's default policy."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator

from repro.common.errors import CacheError
from repro.cache.policies.base import Evicted, EvictionPolicy


class LRUPolicy(EvictionPolicy):
    """Classic LRU over one ordered dict of key -> weight, LRU first and
    MRU last, the order :class:`~repro.core.cliff_scaling._Partition`'s
    segments use.

    A fresh key is stored at the MRU end by assignment alone; a hit or a
    re-store moves the key there; eviction pops the LRU end. ``keys()``
    still yields MRU first. :attr:`touch` is the dict's own
    ``move_to_end`` (``_entries`` is never rebound), so a slab engine's
    GET hit is one C call, and :attr:`used` is a plain attribute. This is
    the policy the paper's analysis, hill climbing and cliff scaling
    assume by default, and the key-only shadow queue of
    :class:`~repro.core.managed.ShadowedQueue`. ``used`` moves in a fixed
    order (old weight out, new weight in, each victim out) and a hit
    leaves it alone, so for the engines' whole-byte weights it equals,
    bit for bit, that of the queue-backed oracle in
    ``tests/cache/reference_lru.py``.
    """

    kind = "lru"

    def __init__(self, capacity: float, name: str = "") -> None:
        super().__init__(capacity, name)
        self._entries: "OrderedDict[object, float]" = OrderedDict()
        self.used = 0.0
        self.touch = self._entries.move_to_end

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[object]:
        return reversed(self._entries)

    def access(self, key: object) -> bool:
        if key not in self._entries:
            return False
        self._entries.move_to_end(key)
        return True

    def insert(self, key: object, weight: float) -> Evicted:
        if weight < 0:
            raise CacheError(f"negative weight {weight} for key {key!r}")
        entries = self._entries
        if key in entries:
            self.used -= entries[key]
            entries.move_to_end(key)
        entries[key] = weight
        self.used += weight
        evicted: Evicted = []
        while entries and self.used > self.capacity:
            victim = entries.popitem(False)
            self.used -= victim[1]
            evicted.append(victim)
        return evicted

    def store(self, key: object, weight: float, resident: Dict[object, int]) -> int:
        if weight < 0:
            raise CacheError(f"negative weight {weight} for key {key!r}")
        entries = self._entries
        used = self.used
        if key in entries:
            used -= entries[key]
            entries.move_to_end(key)
        entries[key] = weight
        used += weight
        victims = 0
        while entries and used > self.capacity:
            victim, victim_weight = entries.popitem(False)
            used -= victim_weight
            del resident[victim]
            victims += 1
        self.used = used
        return victims

    def remove(self, key: object) -> bool:
        if key not in self._entries:
            return False
        self.used -= self._entries.pop(key)
        return True

    def resize(self, capacity: float) -> Evicted:
        self._set_capacity(capacity)
        evicted: Evicted = []
        while self._entries and self.used > self.capacity:
            victim = self._entries.popitem(False)
            self.used -= victim[1]
            evicted.append(victim)
        return evicted
