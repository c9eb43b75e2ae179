"""The credit path as it was before it was made lean: the oracle
``tests/core/test_credit_path.py`` holds the rewritten one to.

:class:`FanOutQueue` is a :class:`CliffhangerQueue` whose control path
is the plain fan-out: every resize runs the size gate, the pointer
clamps, the ratio and both partitions' ``set_physical`` / ``set_hill``
through their own methods; every pointer event recomputes the ratio and
marks a repartition, split or not; a stale-pointer reset marks one
too. :meth:`FanOutQueue.grow` is the engine's old growth test, which
read ``used_bytes``. The request path (``access`` / ``fill`` /
``insert`` / ``remove``) is inherited: ``tests/core/reference.py`` is
its oracle.

:class:`ClosureClimber` is Algorithm 1 as it was: each target a
``(get_capacity, set_capacity)`` pair of callables, the donor list a
comprehension that calls the getter of every other target.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.core.cliff_scaling import SEG_CLIFF, CliffhangerQueue


class FanOutQueue(CliffhangerQueue):
    def grow(self, nbytes: float) -> bool:
        if self.used_bytes + nbytes > self.capacity_bytes:
            self.set_capacity(self.capacity_bytes + nbytes)
            return True
        return False

    def _cliff_gate(self) -> bool:
        return (
            self.enable_cliff_scaling
            and self.capacity_bytes
            >= self.config.min_queue_items_for_cliff * self.config.chunk_size
        )

    def _pointer_event(self, partition, segment: int) -> None:
        if not self.cliff_active:
            return
        credit = self.config.credit_bytes
        size = self.capacity_bytes
        if partition is self.right:
            if segment == SEG_CLIFF:
                ceiling = max(4.0 * size, size + 64.0 * self.config.probe_bytes)
                self.right_pointer = min(ceiling, self.right_pointer + credit)
            elif self.right_pointer > size:
                self.right_pointer = max(size, self.right_pointer - credit)
            else:
                return
        else:
            if segment == SEG_CLIFF:
                floor = self.config.probe_bytes
                new_left = max(floor, self.left_pointer - credit)
                if new_left == self.left_pointer:
                    return
                self.left_pointer = new_left
            elif self.left_pointer < size:
                self.left_pointer = min(size, self.left_pointer + credit)
            else:
                return
        self.pointer_updates += 1
        self._stale_misses = 0
        self._update_split_state()
        self._recompute_ratio()

    def _decay_pointers(self) -> None:
        if not self.cliff_active:
            return
        size = self.capacity_bytes
        if self.right_pointer == size and self.left_pointer == size:
            self._stale_misses = 0
            return
        self._stale_misses += 1
        if self._stale_misses < self.config.stale_miss_limit:
            return
        self._stale_misses = 0
        self.right_pointer = size
        self.left_pointer = size
        if self._split:
            self._split = False
            self.merges += 1
            self._split_baseline = None
            self._split_backoff_until = (
                self._requests_seen + self.config.split_backoff_requests
            )
        self.ratio = self._effective_ratio()
        self._pending_resize = True

    def _partition_targets(self) -> Tuple[float, float]:
        size = self.capacity_bytes
        if not (self.cliff_active and self._split):
            return (0.0, size)
        left_raw = self.left_pointer * self.ratio
        right_raw = self.right_pointer * (1.0 - self.ratio)
        total = left_raw + right_raw
        if total <= 0:
            return (size / 2.0, size / 2.0)
        scale = size / total
        return (left_raw * scale, right_raw * scale)

    def _apply_partition_targets(self) -> int:
        left_target, right_target = self._partition_targets()
        evicted = self.left.set_physical(left_target)
        evicted += self.right.set_physical(right_target)
        hill = self.config.hill_shadow_bytes
        size = self.capacity_bytes
        if size > 0:
            self.left.set_hill(hill * left_target / size)
            self.right.set_hill(hill * right_target / size)
        else:
            self.left.set_hill(hill / 2.0)
            self.right.set_hill(hill / 2.0)
        self._pending_resize = False
        self.repartitions += 1
        return evicted

    def set_capacity(self, capacity_bytes: float) -> int:
        if capacity_bytes < 0:
            raise ConfigurationError("capacity must be >= 0")
        self.capacity_bytes = float(capacity_bytes)
        self.cliff_active = self._cliff_gate()
        if not self.cliff_active:
            self.left_pointer = self.capacity_bytes
            self.right_pointer = self.capacity_bytes
            self._split = False
        else:
            self.left_pointer = min(self.left_pointer, self.capacity_bytes)
            self.right_pointer = max(self.right_pointer, self.capacity_bytes)
            self._update_split_state()
        self.ratio = self._effective_ratio()
        return self._apply_partition_targets()


class _Target:
    __slots__ = ("get_capacity", "set_capacity")

    def __init__(self, get_capacity, set_capacity):
        self.get_capacity = get_capacity
        self.set_capacity = set_capacity


class ClosureClimber:
    """Algorithm 1 over ``(get_capacity, set_capacity)`` callables."""

    def __init__(
        self, credit_bytes: float, min_bytes: float, rng: random.Random
    ) -> None:
        self.credit_bytes = float(credit_bytes)
        self.min_bytes = float(min_bytes)
        self.rng = rng
        self._targets: Dict[Hashable, _Target] = {}
        self.transfers = 0

    def register(
        self,
        queue_id: Hashable,
        get_capacity: Callable[[], float],
        set_capacity: Callable[[float], object],
    ) -> None:
        if queue_id in self._targets:
            raise ConfigurationError(f"queue {queue_id!r} already registered")
        self._targets[queue_id] = _Target(get_capacity, set_capacity)

    def on_shadow_hit(
        self,
        queue_id: Hashable,
        eligible: Optional[Callable[[Hashable], bool]] = None,
    ) -> Optional[Hashable]:
        winner = self._targets.get(queue_id)
        if winner is None:
            raise ConfigurationError(f"unknown queue {queue_id!r}")
        donors = [
            other_id
            for other_id, target in self._targets.items()
            if other_id != queue_id
            and (eligible is None or eligible(other_id))
            and target.get_capacity() > self.min_bytes
        ]
        if not donors:
            return None
        victim_id = donors[self.rng.randrange(len(donors))]
        victim = self._targets[victim_id]
        victim_capacity = victim.get_capacity()
        delta = min(self.credit_bytes, victim_capacity - self.min_bytes)
        if delta <= 0:
            return None
        victim.set_capacity(victim_capacity - delta)
        winner.set_capacity(winner.get_capacity() + delta)
        self.transfers += 1
        return victim_id
