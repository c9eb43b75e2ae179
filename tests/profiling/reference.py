"""Oracles the profiler tests compare against."""

from __future__ import annotations

from typing import Iterable, List, Optional


def naive_stack_distances(keys: Iterable[object]) -> List[Optional[int]]:
    """Stack distances straight from the definition.

    Returns one distance per access; ``None`` marks a cold (infinite
    distance) access. Quadratic: the reference
    :class:`repro.profiling.stack_distance.StackDistanceProfiler` is held to.
    """
    stack: List[object] = []  # index 0 = top of stack
    distances: List[Optional[int]] = []
    for key in keys:
        try:
            rank = stack.index(key)  # 0-based depth
        except ValueError:
            distances.append(None)
            stack.insert(0, key)
        else:
            distances.append(rank + 1)
            stack.pop(rank)
            stack.insert(0, key)
    return distances


def record_all(profiler, keys: Iterable[object]) -> List[Optional[float]]:
    """Feed ``keys`` to ``profiler`` one by one; its distances, in order."""
    return [profiler.record(key) for key in keys]
