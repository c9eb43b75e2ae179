"""The Dynacache solver (paper section 2.1, Equation 1).

The solver approximates the paper's Equation 1::

    maximize   sum_i  w_i * f_i * h_i(m_i)
    subject to sum_i  m_i <= M

given per-queue hit-rate curves ``h_i`` and GET frequencies ``f_i``. The
queues may be slab classes of one application or whole applications
(section 3.3); the size unit just has to be consistent across curves,
frequencies and the budget.

Dynacache estimates stack distances with the Mimir bucket algorithm and
solves Equation 1 *under the assumption that every hit-rate curve is
concave*. For concave curves, greedy marginal-utility allocation is exactly
optimal (the classic water-filling argument: equalize ``f_i h'_i(m_i)``),
so the solver is implemented as chunked greedy ascent.

Both paper-documented failure modes are preserved by construction:

* **Performance cliffs** (section 3.5): on a convex region the local
  marginal utility underestimates what lies past the cliff, so the greedy
  ascent never pays the entry cost and starves the queue -- this is how
  "the solver ... significantly reduces [Application 19's] hit rate from
  99.5% to 74.7%".
* **Estimation error** (section 3.1): when fed Mimir-estimated curves the
  bucket resolution smears fine structure, so sparse queues are
  mis-allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Mapping, Optional

from repro.common.errors import AllocationError
from repro.profiling.hrc import HitRateCurve

QueueId = Hashable


@dataclass
class AllocationPlan:
    """The solver's output.

    Attributes:
        allocations: Size (bytes or items) granted per queue.
        expected_hit_rates: The hit rate each queue's curve predicts at
            its granted size.
        expected_overall_hit_rate: Frequency-weighted overall prediction.
    """

    allocations: Dict[QueueId, float]
    expected_hit_rates: Dict[QueueId, float] = field(default_factory=dict)
    expected_overall_hit_rate: float = 0.0


class DynacacheSolver:
    """Greedy marginal-utility solver for concave hit-rate curves.

    Args:
        granularity: Allocation step size, in the curves' size unit. The
            paper's solver works at slab-page granularity; experiments use
            one chunk or a small multiple.
        minimum: Floor given to every queue before greedy ascent starts
            (0 reproduces the solver's willingness to fully starve a
            queue, as in Table 1's application 6 class 2 under default /
            class 0 under the plan).
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
        weight = weights or {}
        step = self.granularity

        def marginal(queue_id: QueueId) -> float:
            size = allocations[queue_id]
            curve = curves[queue_id]
            gain = curve.hit_rate(size + step) - curve.hit_rate(size)
            return weight.get(queue_id, 1.0) * frequencies[queue_id] * gain

        # Greedy ascent: hand out one step at a time to the steepest
        # queue. A heap would be asymptotically nicer but marginals change
        # after every grant only for the winner, so we just recompute the
        # winner's entry; queue counts here are tens, not thousands.
        marginals = {queue_id: marginal(queue_id) for queue_id in queue_ids}
        while remaining >= step:
            winner = max(queue_ids, key=lambda q: (marginals[q], str(q)))
            if marginals[winner] <= 0.0:
                break  # every curve is locally flat: solver is done
            allocations[winner] += step
            remaining -= step
            marginals[winner] = marginal(winner)
        # Budget left once every *estimated* curve looks flat is spread in
        # proportion to what the greedy ascent already granted. This
        # mirrors a concave solver's behaviour -- and preserves its
        # paper-documented failure: a queue whose estimated gradient was
        # flat because its true curve is a cliff received nothing during
        # the ascent and therefore receives (almost) nothing now, so the
        # solver "falls off" cliffs it cannot see (section 3.5,
        # application 19). An even spread here would accidentally rescue
        # those queues.
        if remaining > 0:
            granted = sum(allocations.values())
            if granted > 0:
                for queue_id in queue_ids:
                    allocations[queue_id] += (
                        remaining * allocations[queue_id] / granted
                    )
            else:
                share = remaining / len(queue_ids)
                for queue_id in queue_ids:
                    allocations[queue_id] += share
        rates = {
            queue_id: curves[queue_id].hit_rate(size)
            for queue_id, size in allocations.items()
        }
        numerator = sum(
            weight.get(q, 1.0) * frequencies[q] * rates[q] for q in allocations
        )
        denominator = sum(
            weight.get(q, 1.0) * frequencies[q] for q in allocations
        )
        overall = numerator / denominator if denominator else 0.0
        return AllocationPlan(
            allocations=allocations,
            expected_hit_rates=rates,
            expected_overall_hit_rate=overall,
        )
