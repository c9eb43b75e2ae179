"""The oracle the stack-distance tests compare against."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence


def naive_stack_distances(
    keys: Iterable[object],
    weights: Optional[Sequence[float]] = None,
) -> List[Optional[float]]:
    """Stack distances straight from the definition.

    Returns one distance per access; ``None`` marks a cold (infinite
    distance) access. Unweighted, a distance is the 1-based rank in the
    LRU stack. With ``weights`` it is the sum of the weights of the keys
    above this one in the stack plus this access's own, each key charged
    its latest size. Quadratic: the reference
    :func:`repro.profiling.stack_distance.stack_distances` is held to.
    """
    stack: List[object] = []  # index 0 = top of stack
    size: Dict[object, float] = {}  # key -> weight at its latest access
    distances: List[Optional[float]] = []
    for index, key in enumerate(keys):
        weight = 1 if weights is None else weights[index]
        try:
            rank = stack.index(key)  # 0-based depth
        except ValueError:
            distances.append(None)
        else:
            distances.append(sum(size[k] for k in stack[:rank]) + weight)
            stack.pop(rank)
        stack.insert(0, key)
        size[key] = weight
    return distances
