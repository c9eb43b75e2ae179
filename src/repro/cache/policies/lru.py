"""Least-recently-used eviction, Memcached's default policy."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator

from repro.common.errors import CacheError
from repro.cache.policies.base import Evicted, EvictionPolicy


class LRUPolicy(EvictionPolicy):
    """Classic LRU over one ordered dict of key -> weight, MRU first.

    Hits promote to the front; insertion is at the front; eviction is from
    the back. This is the policy the paper's analysis, hill climbing and
    cliff scaling assume by default, and the key-only shadow queue of
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
        self._used = 0.0

    @property
    def used(self) -> float:
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[object]:
        return iter(self._entries)

    def access(self, key: object) -> bool:
        if key not in self._entries:
            return False
        self._entries.move_to_end(key, last=False)
        return True

    def insert(self, key: object, weight: float) -> Evicted:
        if weight < 0:
            raise CacheError(f"negative weight {weight} for key {key!r}")
        entries = self._entries
        if key in entries:
            self._used -= entries[key]
        entries[key] = weight
        entries.move_to_end(key, last=False)
        self._used += weight
        evicted: Evicted = []
        while entries and self._used > self.capacity:
            victim = entries.popitem(last=True)
            self._used -= victim[1]
            evicted.append(victim)
        return evicted

    def store(self, key: object, weight: float, resident: Dict[object, int]) -> int:
        if weight < 0:
            raise CacheError(f"negative weight {weight} for key {key!r}")
        entries = self._entries
        used = self._used
        if key in entries:
            used -= entries[key]
        entries[key] = weight
        entries.move_to_end(key, last=False)
        used += weight
        victims = 0
        while entries and used > self.capacity:
            victim, victim_weight = entries.popitem(last=True)
            used -= victim_weight
            del resident[victim]
            victims += 1
        self._used = used
        return victims

    def remove(self, key: object) -> bool:
        if key not in self._entries:
            return False
        self._used -= self._entries.pop(key)
        return True

    def resize(self, capacity: float) -> Evicted:
        self._set_capacity(capacity)
        evicted: Evicted = []
        while self._entries and self._used > self.capacity:
            victim = self._entries.popitem(last=True)
            self._used -= victim[1]
            evicted.append(victim)
        return evicted
