"""The write path as it was before it was one frame: the oracle
``tests/core/test_write_path.py`` holds the rewritten one to.

:class:`PurgeQueue` is a :class:`CliffhangerQueue` whose ``insert``
(SET) calls :meth:`CliffhangerQueue._decay_pointers` on every store,
purges the key with ``_Partition.discard`` -- the routed partition
first, then the other -- and stores it with :func:`push`, which runs
the partition's whole four-segment cascade. Its ``remove`` (DELETE) purges
both partitions, left first, and never stops early. The GET path and
the control path are inherited: ``tests/core/reference.py`` and
``tests/core/reference_credit.py`` are their oracles.

:func:`push` was a ``_Partition`` method; the partition tests in
``tests/core/test_cliff_scaling.py`` store through it.
"""

from __future__ import annotations

from repro.common.hashing import routing_hash
from repro.core.cliff_scaling import SEG_TAIL, CliffhangerQueue, _Partition


def push(partition: _Partition, key: object) -> int:
    """Store ``key`` (held by no segment) at the MRU end of main;
    return how many keys that pushed out of physical memory."""
    partition.main[key] = None
    return partition._cascade()


class PurgeQueue(CliffhangerQueue):
    def insert(self, key: object, weight: float = 0.0) -> int:
        """SET path: :meth:`fill` for a key any segment may hold. The key
        is purged only after the pending repartition, whose cascade must
        see it where it is."""
        self._decay_pointers()
        if self._pending_resize:
            self._apply_partition_targets()
        routed, other = self.right, self.left
        if self._split and routing_hash(key, self.config.salt_mix) < self.ratio:
            routed, other = other, routed
        if routed.discard(key) is None:
            other.discard(key)
        return push(routed, key)

    def remove(self, key: object) -> bool:
        """DELETE path: purge ``key`` from every segment; True only when
        it was in physical memory (main or tail probe)."""
        resident = False
        for partition in (self.left, self.right):
            segment = partition.discard(key)
            if segment is not None:
                resident = resident or segment <= SEG_TAIL
        return resident
