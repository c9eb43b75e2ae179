"""The eviction-policy interface.

A policy manages the *physical* part of one queue: which keys are resident
and which key to evict when space is needed. Weights and capacities are in
bytes; ``capacity`` is a plain attribute, and ``used`` may be one too.
Policies never interact with shadow queues directly; engines forward the
eviction lists returned by :meth:`insert` and :meth:`resize` into whatever
shadow structure they maintain. A slab engine keeps none: :meth:`store`
deletes the victims from its key map and returns their count.

A caller that already knows a key is resident -- a slab engine whose key
map names the key's class -- promotes it with ``touch(key)`` instead of
:meth:`access`: the same promotion, with no residency test and no result
worth reading. :class:`~repro.cache.policies.lru.LRUPolicy`'s ``touch``
is its ordered dict's ``move_to_end`` (one C call); a policy whose
``access`` already returns True for every resident key may alias
``touch = access``.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Iterator, List, Tuple

from repro.common.errors import ConfigurationError

Evicted = List[Tuple[object, float]]


class EvictionPolicy(abc.ABC):
    """Abstract base class for all eviction policies."""

    kind: str = "abstract"
    #: Bytes currently occupied by resident keys: a plain attribute where
    #: the policy keeps one total, a property where it sums several.
    used: float
    #: Promote ``key``, which the caller knows is resident, exactly as a
    #: hit :meth:`access` would; the return value means nothing.
    touch: Callable[[object], object]

    def __init__(self, capacity: float, name: str = "") -> None:
        if capacity < 0:
            raise ConfigurationError(
                f"policy capacity must be >= 0, got {capacity}"
            )
        self.capacity = float(capacity)
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of resident keys."""

    @abc.abstractmethod
    def __contains__(self, key: object) -> bool:
        """True iff ``key`` is physically resident."""

    @abc.abstractmethod
    def keys(self) -> Iterator[object]:
        """Iterate resident keys (order is policy-specific)."""

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def access(self, key: object) -> bool:
        """A GET for ``key``: returns True on hit (and applies whatever
        promotion the policy performs), False on miss."""

    @abc.abstractmethod
    def insert(self, key: object, weight: float) -> Evicted:
        """Store ``key`` with ``weight`` bytes, evicting as needed.

        Returns the evicted ``(key, weight)`` pairs, oldest-victim first.
        Inserting a key that is already resident updates its weight and
        counts as a fresh insertion (the SET path), not as a hit.
        """

    def store(self, key: object, weight: float, resident: Dict[object, int]) -> int:
        """:meth:`insert`, then delete each victim (``key`` too, which the
        caller records first) from ``resident``; returns their count."""
        evicted = self.insert(key, weight)
        for victim, _ in evicted:
            del resident[victim]
        return len(evicted)

    @abc.abstractmethod
    def remove(self, key: object) -> bool:
        """Delete ``key``; True if it was resident."""

    @abc.abstractmethod
    def resize(self, capacity: float) -> Evicted:
        """Change the byte capacity, evicting overflow if shrinking."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _set_capacity(self, capacity: float) -> None:
        if capacity < 0:
            raise ConfigurationError(
                f"policy capacity must be >= 0, got {capacity}"
            )
        self.capacity = float(capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"capacity={self.capacity:.0f}, used={self.used:.0f}, "
            f"items={len(self)})"
        )
