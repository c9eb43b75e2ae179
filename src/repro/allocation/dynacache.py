"""The Dynacache solver (paper section 2.1, Equation 1).

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

from typing import Mapping, Optional

from repro.allocation.base import AllocationPlan, Allocator, QueueId
from repro.profiling.hrc import HitRateCurve


class DynacacheSolver(Allocator):
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
        step = self.granularity

        def marginal(queue_id: QueueId) -> float:
            size = allocations[queue_id]
            curve = curves[queue_id]
            gain = curve.hit_rate(size + step) - curve.hit_rate(size)
            return weight_of(queue_id) * frequencies[queue_id] * gain

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
        if remaining > 0 and queue_ids:
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
        return self._finish_plan(allocations, curves, frequencies, weights)
