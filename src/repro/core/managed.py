"""A policy queue with a shadow extension.

"A shadow queue is an extension of an eviction queue that does not store
the values of the items, only the keys. Items are evicted from the eviction
queue into the shadow queue." (paper section 3.4). The rate of hits in the
shadow queue approximates the hit-rate-curve gradient at the queue's
current size, which is all Algorithm 1 needs.

Shadow capacity is measured in the bytes the shadowed items *represent*
("shadow queues that represent 1 MB of requests", section 5.7); the actual
memory overhead is only the keys, which :meth:`ShadowedQueue.overhead_bytes`
accounts for separately.

The queue protocol. :class:`ShadowedQueue` and the partitioned
:class:`~repro.core.cliff_scaling.CliffhangerQueue` are the two per-class
queues :class:`~repro.core.engine.ClimbingEngine` can run, and it drives
both through the same six names:

* ``access(key)`` -- GET; returns an ``ACCESS_*`` int. Only
  ``ACCESS_HIT`` was served from physical memory; ``ACCESS_HILL_FIND``
  is Algorithm 1's shadow hit. A find forgets the key: the caller fills.
* ``insert(key, weight)`` -- SET / fill; returns how many entries that
  pushed out of physical memory (into the shadow).
* ``set_capacity(capacity_bytes)`` -- resize the physical region; returns
  how many entries that pushed out of physical memory.
* ``remove(key)`` -- DELETE; purges the key everywhere and returns
  whether it was in physical memory. A shadow never claims residency.
* ``capacity_bytes`` / ``used_bytes`` -- physical bytes reserved / held.
"""

from __future__ import annotations

from repro.common.constants import AVG_KEY_BYTES, HILL_CLIMB_SHADOW_BYTES
from repro.cache.keyqueue import KeyQueue
from repro.cache.policies.base import Evicted, EvictionPolicy
from repro.core.cliff_scaling import ACCESS_HILL_FIND, ACCESS_HIT, ACCESS_MISS


class ShadowedQueue:
    """An eviction policy with a key-only LRU shadow appended after it.

    Works with *any* :class:`EvictionPolicy` (section 4.3: Cliffhanger
    "can support any eviction policy, including LRU, LFU and other hybrid
    schemes") because the shadow only consumes the policy's eviction
    stream.
    """

    def __init__(
        self,
        policy: EvictionPolicy,
        shadow_bytes: float = HILL_CLIMB_SHADOW_BYTES,
        name: str = "",
        avg_key_bytes: int = AVG_KEY_BYTES,
    ) -> None:
        self.policy = policy
        self.shadow = KeyQueue(shadow_bytes, name=f"{name}/shadow")
        self.name = name
        self.avg_key_bytes = avg_key_bytes
        self.shadow_hits = 0

    # ------------------------------------------------------------------

    @property
    def capacity_bytes(self) -> float:
        return self.policy.capacity

    @property
    def used_bytes(self) -> float:
        return self.policy.used

    def __len__(self) -> int:
        return len(self.policy)

    def overhead_bytes(self) -> float:
        """Extra memory the shadow queue costs (keys only)."""
        return len(self.shadow) * self.avg_key_bytes

    # ------------------------------------------------------------------

    def access(self, key: object) -> int:
        """GET path: ``ACCESS_HIT`` (physical), ``ACCESS_HILL_FIND``
        (shadow hit) or ``ACCESS_MISS``.

        A shadow hit removes the key from the shadow (the caller fills the
        item back into the physical queue, as a real cache-fill would).
        """
        if self.policy.access(key):
            return ACCESS_HIT
        if key in self.shadow:
            self.shadow.remove(key)
            self.shadow_hits += 1
            return ACCESS_HILL_FIND
        return ACCESS_MISS

    def insert(self, key: object, weight: float) -> int:
        """Store an item; physical evictions flow into the shadow (and
        whatever that pushes off the shadow's tail is fully forgotten).

        Returns the number of items evicted from physical memory.
        """
        if key in self.shadow:
            # The key is being refreshed while remembered only by the
            # shadow; it must not appear in both structures.
            self.shadow.remove(key)
        return self._to_shadow(self.policy.insert(key, weight))

    def remove(self, key: object) -> bool:
        """DELETE path: True only when the key was physically resident;
        a shadow-only key is purged but reported absent."""
        if key in self.shadow:
            self.shadow.remove(key)
        return self.policy.remove(key)

    def set_capacity(self, capacity_bytes: float) -> int:
        """Resize the physical queue; shrink evictions enter the shadow.

        Returns the number of items evicted from physical memory.
        """
        return self._to_shadow(self.policy.resize(capacity_bytes))

    def _to_shadow(self, evicted: Evicted) -> int:
        """Push physical evictions onto the shadow; returns their count."""
        for victim, victim_weight in evicted:
            self.shadow.push_front(victim, victim_weight)
        for _ in self.shadow.overflow():
            pass
        return len(evicted)
