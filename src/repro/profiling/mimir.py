"""Mimir-style bucketed stack-distance estimation.

Dynacache (and therefore the solver baseline in this reproduction) does not
compute exact stack distances -- "we estimated the stack distances using
the bucket algorithm presented in Mimir. This technique is O(N/B) ... not
accurate when estimating stack distance curves with tens of thousands of
items or more" (paper section 2.1). This module implements that estimator
so the solver inherits exactly that inaccuracy.

The scheme (Mimir's ROUNDER): tracked keys live in ``B`` aging buckets,
newest first. A re-accessed key found in bucket ``i`` is estimated to have
stack distance ``(items in buckets newer than i) + half the items in
bucket i`` -- the uniform-within-bucket assumption -- and then moves to the
newest bucket. When the newest bucket grows past the average bucket
population the window rotates: a fresh bucket opens and the two oldest
buckets merge, which is where resolution (and accuracy on big curves) is
lost.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Dict, Iterable, List, Optional, Set

from repro.common.errors import ConfigurationError

#: Default bucket count; the paper used 100 buckets.
DEFAULT_BUCKETS = 100


class MimirProfiler:
    """Bucketed stack-distance estimator (O(N/B) resolution).

    Args:
        num_buckets: Number of aging buckets ``B``.
        min_rotation: Newest-bucket population below which the window
            never rotates (avoids degenerate rotation on tiny streams).
        max_tracked: Optional bound on tracked keys; the oldest bucket is
            trimmed beyond it (keys forgotten this way look cold on their
            next access, exactly like Mimir running inside a bounded
            cache).
    """

    def __init__(
        self,
        num_buckets: int = DEFAULT_BUCKETS,
        min_rotation: int = 8,
        max_tracked: Optional[int] = None,
    ) -> None:
        if num_buckets < 2:
            raise ConfigurationError(
                f"need at least 2 buckets, got {num_buckets}"
            )
        if max_tracked is not None and max_tracked < 1:
            raise ConfigurationError("max_tracked must be positive")
        self.num_buckets = num_buckets
        self.min_rotation = min_rotation
        self.max_tracked = max_tracked
        # buckets[0] is the newest. Each bucket is a set of keys.
        self._buckets: Deque[Set[object]] = deque([set()])
        # key -> round id; the newest bucket's round id is _head_round.
        self._round_of: Dict[object, int] = {}
        self._head_round = 0
        self.distances: List[Optional[float]] = []

    # ------------------------------------------------------------------

    @property
    def tracked(self) -> int:
        return len(self._round_of)

    def _bucket_index(self, round_id: int) -> int:
        """Map a key's round id to its current bucket index (0=newest).

        Rounds older than the window live in the oldest bucket (they were
        merged into it during rotation).
        """
        offset = self._head_round - round_id
        return min(offset, len(self._buckets) - 1)

    def record(self, key: object) -> Optional[float]:
        """Process one access; returns the *estimated* stack distance
        (float, bucket-resolution) or None for a cold access."""
        round_id = self._round_of.get(key)
        if round_id is None:
            estimate: Optional[float] = None
        else:
            index = self._bucket_index(round_id)
            newer = sum(map(len, islice(self._buckets, index)))
            estimate = newer + len(self._buckets[index]) / 2.0
            self._buckets[index].discard(key)
        self._buckets[0].add(key)
        self._round_of[key] = self._head_round
        self.distances.append(estimate)
        self._maybe_rotate()
        self._maybe_trim()
        return estimate

    def record_all(self, keys: Iterable[object]) -> List[Optional[float]]:
        return [self.record(key) for key in keys]

    # ------------------------------------------------------------------

    def _maybe_rotate(self) -> None:
        target = max(self.min_rotation, self.tracked // self.num_buckets)
        if len(self._buckets[0]) < target:
            return
        self._buckets.appendleft(set())
        self._head_round += 1
        if len(self._buckets) > self.num_buckets:
            # Merge the two oldest buckets; their keys' round ids already
            # map onto the last index via _bucket_index's clamp.
            oldest = self._buckets.pop()
            self._buckets[-1] |= oldest

    def _maybe_trim(self) -> None:
        if self.max_tracked is None:
            return
        while self.tracked > self.max_tracked:
            for bucket in reversed(self._buckets):
                if bucket:
                    key = next(iter(bucket))
                    bucket.discard(key)
                    del self._round_of[key]
                    break
            else:  # pragma: no cover - cannot happen while tracked > 0
                return
