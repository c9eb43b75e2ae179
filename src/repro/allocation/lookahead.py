"""The LookAhead allocator (Qureshi & Patt, MICRO 2006; paper section 6.2).

LookAhead is utility-based cache partitioning's answer to non-convexity:
instead of the *local* gradient it considers, for every queue, the maximum
*average* marginal utility over every possible expansion -- so a cliff
whose far side pays for the whole climb is taken in one stride. It needs
the entire hit-rate curve (which is exactly the cost Cliffhanger avoids),
making it the natural oracle-style comparator for cliff scaling.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from repro.allocation.base import AllocationPlan, Allocator, QueueId
from repro.profiling.hrc import HitRateCurve


class LookAheadAllocator(Allocator):
    """Chunked LookAhead over full hit-rate curves."""

    def _best_stride(
        self,
        curve: HitRateCurve,
        frequency: float,
        weight: float,
        current: float,
        remaining: float,
    ) -> Tuple[float, float]:
        """Max average marginal utility over all strides <= remaining.

        Returns ``(utility_per_unit, stride)``; (0, 0) if no stride helps.
        """
        base = curve.hit_rate(current)
        best_utility, best_stride = 0.0, 0.0
        steps = int(remaining // self.granularity)
        for k in range(1, steps + 1):
            stride = k * self.granularity
            gain = curve.hit_rate(current + stride) - base
            utility = weight * frequency * gain / stride
            if utility > best_utility + 1e-15:
                best_utility, best_stride = utility, stride
        return best_utility, best_stride

    def allocate(
        self,
        curves: Mapping[QueueId, HitRateCurve],
        frequencies: Mapping[QueueId, float],
        total: float,
        weights: Optional[Mapping[QueueId, float]] = None,
    ) -> AllocationPlan:
        queue_ids, allocations, remaining, weight_of = self._start(
            curves, frequencies, total, weights
        )
        while remaining >= self.granularity:
            best: Tuple[float, float, Optional[QueueId]] = (0.0, 0.0, None)
            for queue_id in queue_ids:
                utility, stride = self._best_stride(
                    curves[queue_id],
                    frequencies[queue_id],
                    weight_of(queue_id),
                    allocations[queue_id],
                    remaining,
                )
                if utility > best[0] + 1e-15:
                    best = (utility, stride, queue_id)
            if best[2] is None:
                break
            allocations[best[2]] += best[1]
            remaining -= best[1]
        if remaining > 0 and queue_ids:
            share = remaining / len(queue_ids)
            for queue_id in queue_ids:
                allocations[queue_id] += share
        return self._finish_plan(allocations, curves, frequencies, weights)
