"""The ARC, Facebook and shadowed queues over :class:`KeyQueue`.

:class:`~repro.cache.policies.arc.ARCPolicy`,
:class:`~repro.cache.policies.facebook.FacebookPolicy` and
:class:`~repro.core.managed.ShadowedQueue` keep ordered dicts and byte
totals of their own; these are the queue-backed forms they replaced,
unchanged but for their names, kept as the oracles
``test_lru_oracle.py`` and ``tests/core/test_shadowed_queue.py`` drive
them against step by step.
"""

from __future__ import annotations

from typing import Iterator

from repro.cache.policies.base import Evicted, EvictionPolicy
from repro.common.constants import AVG_KEY_BYTES, HILL_CLIMB_SHADOW_BYTES
from repro.core.cliff_scaling import ACCESS_HILL_FIND, ACCESS_HIT, ACCESS_MISS
from tests.cache.keyqueue import KeyQueue


class KeyQueueARC(EvictionPolicy):
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
        # _replace may demote the key just pushed (alone in T1 while T2
        # fills the capacity); it is then among the victims returned.
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


class KeyQueueFacebook(EvictionPolicy):
    """Mid-insertion LRU with the protected half on top.

    Items that are never re-referenced only ever travel the bottom of the
    queue before eviction, which protects the hot top half from
    one-hit-wonder churn.
    """

    kind = "facebook"

    def __init__(self, capacity: float, name: str = "") -> None:
        super().__init__(capacity, name)
        self._protected = KeyQueue(capacity * 0.5, name=f"{name}/protected")
        self._probation = KeyQueue(capacity, name=f"{name}/probation")

    # ------------------------------------------------------------------

    @property
    def used(self) -> float:
        return self._protected.used + self._probation.used

    def __len__(self) -> int:
        return len(self._protected) + len(self._probation)

    def __contains__(self, key: object) -> bool:
        return key in self._protected or key in self._probation

    def keys(self) -> Iterator[object]:
        yield from self._protected.keys_mru_to_lru()
        yield from self._probation.keys_mru_to_lru()

    def in_protected(self, key: object) -> bool:
        """True iff the key sits in the protected segment (for tests)."""
        return key in self._protected

    # ------------------------------------------------------------------

    def _cascade(self) -> Evicted:
        """Demote protected overflow to probation, then evict whatever
        leaves the whole queue over capacity."""
        for key, weight in self._protected.overflow():
            self._probation.push_front(key, weight)
        self._probation.resize(self.capacity - self._protected.used)
        return list(self._probation.overflow())

    def access(self, key: object) -> bool:
        if key in self._protected:
            weight = self._protected.weight_of(key)
            self._protected.push_front(key, weight)
            return True
        if key in self._probation:
            weight = self._probation.remove(key)
            self._protected.push_front(key, weight)
            self._cascade()
            return True
        return False

    def insert(self, key: object, weight: float) -> Evicted:
        # A re-SET of a resident key keeps its segment; treat it as a
        # fresh value in the same place with the new weight.
        if key in self._protected:
            self._protected.push_front(key, weight)
        else:
            if key in self._probation:
                self._probation.remove(key)
            self._probation.push_front(key, weight)
        return self._cascade()

    def remove(self, key: object) -> bool:
        if key in self._protected:
            self._protected.remove(key)
            return True
        if key in self._probation:
            self._probation.remove(key)
            return True
        return False

    def resize(self, capacity: float) -> Evicted:
        self._set_capacity(capacity)
        self._protected.resize(capacity * 0.5)
        return self._cascade()


class KeyQueueShadowed:
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
        return self.fill(key, weight)

    def fill(self, key: object, weight: float) -> int:
        """:meth:`insert` after a non-hit :meth:`access`, which already
        took any shadow entry for the key."""
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
