"""Weighted ordered key queues: the structure the oracles are built on.

:class:`KeyQueue` is an ordered set of keys with per-key weights and a
capacity measured in weight units (bytes). MRU is at the *front*, LRU at
the *back*. It stores keys only -- the simulator never materializes
values. The eviction structures in ``src/`` once built their segments
from it; each now keeps its own ordered dict and byte total, and the
queue-backed forms they replaced are the oracles in
``reference_lru.py``, ``reference_policies.py`` and
``tests/core/reference.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Tuple

from repro.common.errors import CacheError, ConfigurationError


class KeyQueue:
    """An ordered, capacity-bounded set of weighted keys (MRU at front).

    The queue never evicts by itself; callers drain :meth:`overflow` after
    mutating it, so what an eviction does with its victims is theirs to
    decide.
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
