"""Exact stack-distance computation (Mattson et al., 1970).

The stack distance of a request is the rank of its key in an LRU stack at
access time, counted from 1 at the top; a key never seen before has
infinite distance (represented as ``None``). The fundamental inclusion
property -- an LRU cache of capacity C (in items) hits a request iff its
stack distance is <= C -- is what turns a distance histogram into a
hit-rate curve, and it is property-tested against the simulator.

:class:`StackDistanceProfiler` is an O(N log N) online profiler using a
Fenwick (binary indexed) tree over access timestamps: the distance of a
re-access is one plus the number of *distinct* keys touched since the
previous access, which equals the number of live timestamp markers after
that previous access. Its test oracle, the O(N^2) definition, lives in
``tests/profiling/reference.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class _Fenwick:
    """A grow-only Fenwick tree of weighted markers over access indices."""

    __slots__ = ("_tree", "_size", "_capacity")

    def __init__(self, initial_capacity: int = 1024) -> None:
        self._capacity = max(1, initial_capacity)
        self._tree = [0.0] * (self._capacity + 1)
        self._size = 0

    def append(self, weight: float) -> int:
        """Append a new position holding ``weight``; return its index."""
        index = self._size
        self._size += 1
        if self._size > self._capacity:
            self._grow()
        self._add(index, weight)
        return index

    def clear_position(self, index: int, weight: float) -> None:
        self._add(index, -weight)

    def _grow(self) -> None:
        # Double capacity and rebuild in O(n): peel the tree down to point
        # values with one backward pass (each node donates its partial sum
        # back to its parent range), then rebuild with the mirrored
        # forward pass over the doubled tree.
        old_capacity = self._capacity
        values = self._tree[1 : old_capacity + 1]
        for i in range(old_capacity, 0, -1):
            parent = i + (i & -i)
            if parent <= old_capacity:
                values[parent - 1] -= values[i - 1]
        self._capacity *= 2
        tree = [0.0] * (self._capacity + 1)
        tree[1 : old_capacity + 1] = values
        for i in range(1, self._capacity + 1):
            parent = i + (i & -i)
            if parent <= self._capacity:
                tree[parent] += tree[i]
        self._tree = tree

    def _add(self, index: int, delta: float) -> None:
        i = index + 1
        while i <= self._capacity:
            self._tree[i] += delta
            i += i & (-i)

    def prefix(self, index: int) -> float:
        """Sum of marker weights in positions [0, index]."""
        if index < 0:
            return 0.0
        total = 0.0
        i = min(index + 1, self._capacity)
        while i > 0:
            total += self._tree[i]
            i -= i & (-i)
        return total

    @property
    def total(self) -> float:
        return self.prefix(self._size - 1)


class StackDistanceProfiler:
    """Online exact stack-distance profiler, O(log N) per access.

    Usage::

        profiler = StackDistanceProfiler()
        for key in keys:
            d = profiler.record(key)   # None on first access

    With the default unit weights the returned distance is the classic
    1-based LRU stack rank. Passing per-access ``weight`` (item bytes)
    yields *byte* stack distances: the total bytes of distinct keys
    touched since the previous access, including this item's own bytes --
    a byte-capacity LRU of capacity C hits iff this distance is <= C
    (assuming stable item sizes). Byte distances are what the
    cross-application allocator profiles (paper section 3.3).

    :attr:`distances` accumulates every returned value, in order, so a
    finished profiler can be fed directly to
    :meth:`repro.profiling.hrc.HitRateCurve.from_stack_distances`.
    """

    def __init__(self) -> None:
        self._fenwick = _Fenwick()
        # key -> (position, weight at that position)
        self._last: Dict[object, tuple] = {}
        self.distances: List[Optional[float]] = []

    def record(self, key: object, weight: float = 1.0) -> Optional[float]:
        """Process one access; return its stack distance (None = cold)."""
        previous = self._last.get(key)
        if previous is None:
            distance: Optional[float] = None
        else:
            prev_position, prev_weight = previous
            # Live markers strictly after the previous access are the
            # distinct keys touched since; adding this item's own weight
            # converts depth to an inclusive rank (1-based in unit mode).
            newer = self._fenwick.total - self._fenwick.prefix(prev_position)
            distance = newer + weight
            self._fenwick.clear_position(prev_position, prev_weight)
        self._last[key] = (self._fenwick.append(weight), weight)
        self.distances.append(distance)
        return distance

