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

:func:`mimir_distances` runs the scheme over a whole key column, known
before it starts, and returns every access's estimate (None = cold).
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Dict, List, Optional, Sequence, Set

from repro.common.errors import ConfigurationError

#: Default bucket count; the paper used 100 buckets.
DEFAULT_BUCKETS = 100

#: Newest-bucket population below which the window never rotates
#: (avoids degenerate rotation on tiny streams).
MIN_ROTATION = 8


def mimir_distances(
    keys: Sequence[object],
    num_buckets: int = DEFAULT_BUCKETS,
) -> List[Optional[float]]:
    """Every access's *estimated* stack distance (bucket resolution), in
    order; None marks a cold access. ``num_buckets`` is ``B``."""
    if num_buckets < 2:
        raise ConfigurationError(f"need at least 2 buckets, got {num_buckets}")
    # buckets[0] is the newest; a key's round id maps to its bucket, and
    # rounds older than the window live in the oldest bucket (they were
    # merged into it during rotation).
    buckets: Deque[Set[object]] = deque([set()])
    round_of: Dict[object, int] = {}
    head_round = 0
    distances: List[Optional[float]] = []
    for key in keys:
        round_id = round_of.get(key)
        if round_id is None:
            distances.append(None)
        else:
            index = min(head_round - round_id, len(buckets) - 1)
            bucket = buckets[index]
            newer = sum(map(len, islice(buckets, index)))
            distances.append(newer + len(bucket) / 2.0)
            bucket.discard(key)
        buckets[0].add(key)
        round_of[key] = head_round
        if len(buckets[0]) >= max(MIN_ROTATION, len(round_of) // num_buckets):
            buckets.appendleft(set())
            head_round += 1
            if len(buckets) > num_buckets:
                # Merge the two oldest buckets; their keys' round ids
                # already map onto the last index through the clamp.
                oldest = buckets.pop()
                buckets[-1] |= oldest
    return distances
