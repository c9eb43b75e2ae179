"""Exact stack-distance computation (Mattson et al., 1970).

The stack distance of a request is the rank of its key in an LRU stack at
access time, counted from 1 at the top; a key never seen before has
infinite distance (represented as ``None``). The fundamental inclusion
property -- an LRU cache of capacity C (in items) hits a request iff its
stack distance is <= C -- is what turns a distance histogram into a
hit-rate curve, and it is property-tested against the simulator.

:func:`stack_distances` takes a whole key column, known before it
starts, and returns every access's distance in O(N log N): a Fenwick
(binary indexed) tree over access positions, sized once from
``len(keys)``, holds one live marker per key at its latest access. The
distance of a re-access is the weight of the markers after the key's
previous access, plus its own. Its test oracle, the O(N^2) definition,
lives in ``tests/profiling/reference.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


def stack_distances(
    keys: Sequence[object],
    weights: Optional[Sequence[float]] = None,
) -> List[Optional[float]]:
    """Every access's exact stack distance, in order (None = cold).

    With unit weights (``weights=None``) a distance is the classic
    1-based LRU stack rank. Per-access ``weights`` (item bytes) give
    *byte* stack distances: the bytes of the distinct keys touched since
    the previous access, each charged its latest size, plus this access's
    own -- a byte-capacity LRU of capacity C hits iff the distance is <=
    C (with stable item sizes). Byte distances are what the
    cross-application allocator profiles (paper section 3.3). Integer
    weights below 2**53 keep every sum exact.

    The result feeds
    :meth:`repro.profiling.hrc.HitRateCurve.from_stack_distances`.
    """
    size = len(keys)
    if weights is None:
        weights = [1.0] * size
    tree = [0.0] * (size + 1)  # 1-based; position p holds access p - 1
    last: Dict[object, Tuple[int, float]] = {}
    total = 0.0  # weight of every live marker
    distances: List[Optional[float]] = []
    for position, (key, weight) in enumerate(zip(keys, weights), 1):
        previous = last.get(key)
        if previous is None:
            distances.append(None)
        else:
            prev_position, prev_weight = previous
            # Live markers up to and including the previous access.
            upto = 0.0
            i = prev_position
            while i:
                upto += tree[i]
                i &= i - 1
            distances.append(total - upto + weight)
            i = prev_position
            while i <= size:
                tree[i] -= prev_weight
                i += i & -i
            total -= prev_weight
        i = position
        while i <= size:
            tree[i] += weight
            i += i & -i
        total += weight
        last[key] = (position, weight)
    return distances
