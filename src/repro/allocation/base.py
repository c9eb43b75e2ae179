"""Allocator interface.

An allocator solves (an approximation of) the paper's Equation 1::

    maximize   sum_i  w_i * f_i * h_i(m_i)
    subject to sum_i  m_i <= M

given per-queue hit-rate curves ``h_i`` and GET frequencies ``f_i``. The
queues may be slab classes of one application or whole applications
(section 3.3); the size unit just has to be consistent across curves,
frequencies and the budget.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.common.errors import AllocationError
from repro.profiling.hrc import HitRateCurve

QueueId = Hashable


@dataclass
class AllocationPlan:
    """The output of an allocator.

    Attributes:
        allocations: Size (bytes or items) granted per queue.
        expected_hit_rates: The hit rate each queue's curve predicts at
            its granted size.
        expected_overall_hit_rate: Frequency-weighted overall prediction.
    """

    allocations: Dict[QueueId, float]
    expected_hit_rates: Dict[QueueId, float] = field(default_factory=dict)
    expected_overall_hit_rate: float = 0.0

    @property
    def total(self) -> float:
        return sum(self.allocations.values())

    def describe(self) -> str:
        lines = ["queue        alloc       exp.hitrate"]
        for queue_id in sorted(self.allocations, key=str):
            rate = self.expected_hit_rates.get(queue_id, float("nan"))
            lines.append(
                f"{str(queue_id):<12} {self.allocations[queue_id]:>10.0f} "
                f"{rate:>10.4f}"
            )
        lines.append(
            f"overall expected hit rate: "
            f"{self.expected_overall_hit_rate:.4f}"
        )
        return "\n".join(lines)


class Allocator(abc.ABC):
    """Base class for curve-driven allocators.

    Args:
        granularity: Allocation step size, in the curves' size unit.
        minimum: Floor given to every queue before the ascent starts.
    """

    def __init__(self, granularity: float, minimum: float = 0.0) -> None:
        if granularity <= 0:
            raise AllocationError(
                f"granularity must be positive, got {granularity}"
            )
        if minimum < 0:
            raise AllocationError(f"minimum must be >= 0, got {minimum}")
        self.granularity = granularity
        self.minimum = minimum

    @abc.abstractmethod
    def allocate(
        self,
        curves: Mapping[QueueId, HitRateCurve],
        frequencies: Mapping[QueueId, float],
        total: float,
        weights: Optional[Mapping[QueueId, float]] = None,
    ) -> AllocationPlan:
        """Produce an allocation of ``total`` size units across queues.

        ``frequencies`` are GET counts (the ``f_i`` of Eq. 1) and
        ``weights`` the optional operator priorities ``w_i`` (default 1).
        """

    # ------------------------------------------------------------------

    @staticmethod
    def _validate(
        curves: Mapping[QueueId, HitRateCurve],
        frequencies: Mapping[QueueId, float],
        total: float,
    ) -> None:
        if not curves:
            raise AllocationError("no queues to allocate to")
        if total <= 0:
            raise AllocationError(f"budget must be positive, got {total}")
        missing = set(curves) - set(frequencies)
        if missing:
            raise AllocationError(
                f"queues without frequencies: {sorted(missing, key=str)}"
            )
        negative = [q for q, f in frequencies.items() if f < 0]
        if negative:
            raise AllocationError(
                f"negative frequencies for {sorted(negative, key=str)}"
            )

    def _start(
        self,
        curves: Mapping[QueueId, HitRateCurve],
        frequencies: Mapping[QueueId, float],
        total: float,
        weights: Optional[Mapping[QueueId, float]],
    ) -> Tuple[
        List[QueueId], Dict[QueueId, float], float, Callable[[QueueId], float]
    ]:
        """Validate the inputs and give every queue its floor.

        Returns ``(queue_ids, allocations, remaining, weight_of)``: the
        floor-filled allocation, the budget left for the ascent and the
        ``w_i`` lookup.
        """
        self._validate(curves, frequencies, total)
        queue_ids = list(curves)
        if self.minimum * len(queue_ids) > total:
            raise AllocationError(
                f"minimum {self.minimum} x {len(queue_ids)} queues exceeds "
                f"budget {total}"
            )
        allocations: Dict[QueueId, float] = {
            queue_id: self.minimum for queue_id in queue_ids
        }
        remaining = total - self.minimum * len(queue_ids)
        return queue_ids, allocations, remaining, self._weight_of(weights)

    @staticmethod
    def _weight_of(
        weights: Optional[Mapping[QueueId, float]],
    ) -> Callable[[QueueId], float]:
        if weights:
            return lambda q: weights.get(q, 1.0)
        return lambda q: 1.0

    @staticmethod
    def _finish_plan(
        allocations: Dict[QueueId, float],
        curves: Mapping[QueueId, HitRateCurve],
        frequencies: Mapping[QueueId, float],
        weights: Optional[Mapping[QueueId, float]],
    ) -> AllocationPlan:
        rates = {
            queue_id: curves[queue_id].hit_rate(size)
            for queue_id, size in allocations.items()
        }
        weight_of = Allocator._weight_of(weights)
        numerator = sum(
            weight_of(q) * frequencies[q] * rates[q] for q in allocations
        )
        denominator = sum(
            weight_of(q) * frequencies[q] for q in allocations
        )
        overall = numerator / denominator if denominator else 0.0
        return AllocationPlan(
            allocations=allocations,
            expected_hit_rates=rates,
            expected_overall_hit_rate=overall,
        )
