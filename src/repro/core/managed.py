"""A policy queue with a shadow extension.

"A shadow queue is an extension of an eviction queue that does not store
the values of the items, only the keys. Items are evicted from the eviction
queue into the shadow queue." (paper section 3.4). The rate of hits in the
shadow queue approximates the hit-rate-curve gradient at the queue's
current size, which is all Algorithm 1 needs.

Shadow capacity is measured in the bytes the shadowed items *represent*
("shadow queues that represent 1 MB of requests", section 5.7); the actual
memory overhead is only the keys.

The queue protocol. :class:`ShadowedQueue` and the partitioned
:class:`~repro.core.cliff_scaling.CliffhangerQueue` are the two per-class
queues :class:`~repro.core.engine.ClimbingEngine` can run, and it drives
both through the same eight names:

* ``access(key)`` -- GET; returns an ``ACCESS_*`` int. Only
  ``ACCESS_HIT`` was served from physical memory; ``ACCESS_HILL_FIND``
  is Algorithm 1's shadow hit. A find forgets the key: the caller fills.
* ``fill(key, weight)`` -- GET-miss fill of a key the preceding
  ``access`` left non-resident (nothing in between stores it: start-up
  growth and credit transfers only resize), so the queue skips
  searching for it; returns how many entries that pushed out of
  physical memory (into the shadow).
* ``insert(key, weight)`` -- SET: purge the key wherever the queue
  holds it, then store it as ``fill`` does; returns the same count.
  ``CliffhangerQueue`` does both in one frame: it searches the routed
  partition's segments, then the other partition's, and pushes down
  with ``fill``'s one step per segment boundary.
* ``set_capacity(capacity_bytes)`` -- resize the physical region; returns
  how many entries that pushed out of physical memory.
* ``grow(nbytes)`` -- start-up growth: ``set_capacity(capacity_bytes +
  nbytes)`` when fewer than ``nbytes`` of the physical region are free;
  returns whether it grew. A larger capacity evicts nothing, so
  :class:`ShadowedQueue` sets its policy's ``capacity`` in place here and
  on a growing ``set_capacity``, as
  :meth:`~repro.cache.engines.FirstComeFirstServeEngine._admit` does.
* ``remove(key)`` -- DELETE; purges the key and returns whether it was
  in physical memory. A shadow never claims residency. A key sits in
  one place of a queue at most, so ``CliffhangerQueue`` stops at the
  first partition that held it.
* ``capacity_bytes`` / ``used_bytes`` -- physical bytes reserved / held
  (``capacity_bytes`` is what the hill climber reads per donor; on both
  queues a plain attribute that only ``set_capacity`` and ``grow``
  write).

The shadow is an :class:`~repro.cache.policies.lru.LRUPolicy` over the
evicted keys, and what it evicts is forgotten. What the ``hill`` and
``cliffhanger`` engines cost in Python calls per request is gated by
the ``BUDGET`` table of ``tests/sim/test_call_budget.py``, with the
per-function counts recorded in ``tests/sim/call_tables.json``.
"""

from __future__ import annotations

from repro.common.constants import HILL_CLIMB_SHADOW_BYTES
from repro.cache.policies.base import Evicted, EvictionPolicy
from repro.cache.policies.lru import LRUPolicy
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
    ) -> None:
        self.policy = policy
        self.shadow = LRUPolicy(shadow_bytes, name=f"{name}/shadow")
        self.name = name
        self.shadow_hits = 0
        #: ``policy.capacity``, kept by :meth:`set_capacity` and :meth:`grow`.
        self.capacity_bytes = policy.capacity

    # ------------------------------------------------------------------

    @property
    def used_bytes(self) -> float:
        return self.policy.used

    def __len__(self) -> int:
        return len(self.policy)

    # ------------------------------------------------------------------

    def access(self, key: object) -> int:
        """GET path: ``ACCESS_HIT`` (physical), ``ACCESS_HILL_FIND``
        (shadow hit) or ``ACCESS_MISS``.

        A shadow hit removes the key from the shadow (the caller fills the
        item back into the physical queue, as a real cache-fill would).
        """
        if self.policy.access(key):
            return ACCESS_HIT
        if self.shadow.remove(key):
            self.shadow_hits += 1
            return ACCESS_HILL_FIND
        return ACCESS_MISS

    def insert(self, key: object, weight: float) -> int:
        """Store an item; physical evictions flow into the shadow (and
        whatever that pushes off the shadow's tail is fully forgotten).

        Returns the number of items evicted from physical memory.
        """
        # A key refreshed while remembered only by the shadow must not
        # appear in both structures.
        self.shadow.remove(key)
        return self.fill(key, weight)

    def fill(self, key: object, weight: float) -> int:
        """:meth:`insert` after a non-hit :meth:`access`, which already
        took any shadow entry for the key."""
        return self._to_shadow(self.policy.insert(key, weight))

    def remove(self, key: object) -> bool:
        """DELETE path: True only when the key was physically resident;
        a shadow-only key is purged but reported absent."""
        self.shadow.remove(key)
        return self.policy.remove(key)

    def grow(self, nbytes: float) -> bool:
        """Start-up growth: add ``nbytes`` of capacity when fewer than
        ``nbytes`` are free; return whether it grew."""
        policy = self.policy
        capacity = self.capacity_bytes
        if policy.used + nbytes <= capacity:
            return False
        # Growth, in one step: a larger capacity evicts nothing.
        self.capacity_bytes = policy.capacity = capacity + nbytes
        return True

    def set_capacity(self, capacity_bytes: float) -> int:
        """Resize the physical queue; shrink evictions enter the shadow.

        Returns the number of items evicted from physical memory.
        """
        policy = self.policy
        if capacity_bytes >= self.capacity_bytes:
            # Growth, in one step: a larger capacity evicts nothing.
            self.capacity_bytes = policy.capacity = float(capacity_bytes)
            return 0
        evicted = policy.resize(capacity_bytes)
        self.capacity_bytes = policy.capacity
        return self._to_shadow(evicted)

    def _to_shadow(self, evicted: Evicted) -> int:
        """Push physical evictions onto the shadow; returns their count."""
        for victim, victim_weight in evicted:
            self.shadow.insert(victim, victim_weight)
        return len(evicted)
