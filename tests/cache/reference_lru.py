"""The LRU policy over a :class:`~tests.cache.keyqueue.KeyQueue`.

:class:`repro.cache.policies.lru.LRUPolicy` keeps its own ordered dict
so the stock engine's request path stays short; this is the queue-backed
form it replaced, kept as the oracle ``test_lru_oracle.py`` drives it
against step by step.
"""

from __future__ import annotations

from typing import Iterator

from repro.cache.policies.base import Evicted, EvictionPolicy
from tests.cache.keyqueue import KeyQueue


class KeyQueueLRU(EvictionPolicy):
    """Classic LRU over a single :class:`KeyQueue`."""

    kind = "lru"

    def __init__(self, capacity: float, name: str = "") -> None:
        super().__init__(capacity, name)
        self._queue = KeyQueue(capacity, name=f"{name}/lru")

    @property
    def used(self) -> float:
        return self._queue.used

    def __len__(self) -> int:
        return len(self._queue)

    def __contains__(self, key: object) -> bool:
        return key in self._queue

    def keys(self) -> Iterator[object]:
        return self._queue.keys_mru_to_lru()

    def access(self, key: object) -> bool:
        if key not in self._queue:
            return False
        weight = self._queue.weight_of(key)
        self._queue.push_front(key, weight)
        return True

    def insert(self, key: object, weight: float) -> Evicted:
        self._queue.push_front(key, weight)
        return list(self._queue.overflow())

    def remove(self, key: object) -> bool:
        if key not in self._queue:
            return False
        self._queue.remove(key)
        return True

    def resize(self, capacity: float) -> Evicted:
        self._set_capacity(capacity)
        self._queue.resize(capacity)
        return list(self._queue.overflow())
