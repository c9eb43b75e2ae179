"""Algorithm 1: shadow-queue hill climbing.

::

    if request in shadowQueue(i):
        queue(i).size += credit
        chosenQueue = pickRandom(queues - {queue(i)})
        chosenQueue.size -= credit

The frequency of shadow hits for queue *i* is proportional to
``f_i * h'_i(m_i)`` (the request rate times the local hit-rate gradient),
and removing credit from a uniformly random other queue removes, in
expectation, the *average* gradient. In equilibrium every queue's
normalized gradient equals that average -- the Lagrangian optimality
condition of Equation 1 (paper section 4.1). The integration test
``tests/core/test_hill_climbing.py::TestEquilibrium::test_equalizes_weighted_gradients``
verifies this on synthetic concave curves.

The :class:`HillClimber` here is deliberately decoupled from any cache
structure: it moves *capacity* between abstract resize targets, so the
same object drives slab classes within an application
(:class:`repro.core.engine.HillClimbEngine`), partitioned Cliffhanger
queues (:class:`repro.core.engine.CliffhangerEngine`), whole
applications (:class:`repro.core.crossapp.CrossAppHillClimber`) and
cluster shards (:class:`repro.cluster.rebalance.Rebalancer`).

A target is anything with a ``capacity_bytes`` and a ``set_capacity``
(:data:`ResizeTarget`): an engine registers its queues themselves, so
building the donor list reads one attribute per queue and calls
nothing; budgets that are sums or live elsewhere come through a
:class:`CallbackTarget`. A shadow hit in a climber with one queue
returns at once. A shadow hit costs one frame, counted in the
``credit/1024`` and ``credit/131072`` rows of
``tests/sim/test_call_budget.py::BUDGET``. The victim is drawn with
``rng.choice``, which draws exactly as
``donors[rng.randrange(len(donors))]`` would.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Hashable, Optional

from repro.common.constants import DEFAULT_CREDIT_BYTES, MIN_QUEUE_BYTES
from repro.common.errors import ConfigurationError

QueueId = Hashable

#: What the climber moves capacity between: anything with a readable
#: ``capacity_bytes`` and a ``set_capacity(capacity_bytes)``. A queue's
#: ``set_capacity`` returns its eviction count; the climber ignores
#: whatever a setter returns.
ResizeTarget = Any


class CallbackTarget:
    """A :data:`ResizeTarget` read and written through two callbacks,
    for a capacity that is no one object's attribute (a shard's
    reservation, an application's budget)."""

    __slots__ = ("_get_capacity", "set_capacity")

    def __init__(
        self,
        get_capacity: Callable[[], float],
        set_capacity: Callable[[float], object],
    ) -> None:
        self._get_capacity = get_capacity
        self.set_capacity = set_capacity

    @property
    def capacity_bytes(self) -> float:
        return self._get_capacity()


class HillClimber:
    """Moves capacity between registered queues on shadow hits.

    Args:
        credit_bytes: Capacity moved per shadow hit (paper: 1-4 KB works
            best; larger credits oscillate, section 5.3).
        min_bytes: Floor below which a queue is never shrunk, so a starved
            queue's shadow can still observe returning demand.
        rng: Random source for victim selection. Uniform selection over
            the *other* queues is load-bearing: it is what makes credit
            removal proportional to the average gradient (section 4.1).
    """

    def __init__(
        self,
        credit_bytes: float = DEFAULT_CREDIT_BYTES,
        min_bytes: float = MIN_QUEUE_BYTES,
        rng: Optional[random.Random] = None,
    ) -> None:
        if credit_bytes <= 0:
            raise ConfigurationError(
                f"credit must be positive, got {credit_bytes}"
            )
        if min_bytes < 0:
            raise ConfigurationError(f"min_bytes must be >= 0: {min_bytes}")
        self.credit_bytes = float(credit_bytes)
        self.min_bytes = float(min_bytes)
        self.rng = rng or random.Random(0)
        self._targets: Dict[QueueId, ResizeTarget] = {}
        self.transfers = 0

    # ------------------------------------------------------------------

    def register(self, queue_id: QueueId, target: ResizeTarget) -> None:
        """Add a queue to the optimization set."""
        if queue_id in self._targets:
            raise ConfigurationError(f"queue {queue_id!r} already registered")
        self._targets[queue_id] = target

    # ------------------------------------------------------------------

    def on_shadow_hit(
        self,
        queue_id: QueueId,
        eligible: Optional[Callable[[QueueId], bool]] = None,
    ) -> Optional[QueueId]:
        """Algorithm 1, lines 1-5: grow ``queue_id``, shrink a random
        other queue. Returns the victim's id, or None when no queue could
        donate (all others at the floor, or the winner is alone).

        ``eligible`` optionally filters the donor pool without
        removing anyone (the cluster fault layer excludes crashed
        shards this way); an all-true predicate leaves the donor list --
        and therefore the RNG draw sequence -- unchanged.

        A lone winner returns before anything is read. The donor list is
        one loop over the targets in registration order, reading each
        one's ``capacity_bytes`` -- on a queue, a plain attribute.
        """
        targets = self._targets
        winner = targets.get(queue_id)
        if winner is None:
            raise ConfigurationError(f"unknown queue {queue_id!r}")
        if len(targets) == 1:
            return None
        floor = self.min_bytes
        donors = []
        for other_id, target in targets.items():
            if (
                target is not winner
                and (eligible is None or eligible(other_id))
                and target.capacity_bytes > floor
            ):
                donors.append(other_id)
        if not donors:
            return None
        # ``choice`` draws exactly as ``donors[randrange(len(donors))]``.
        victim_id = self.rng.choice(donors)
        victim = targets[victim_id]
        victim_capacity = victim.capacity_bytes
        delta = self.credit_bytes
        spare = victim_capacity - floor
        if spare < delta:
            delta = spare
        if delta <= 0:
            return None
        victim.set_capacity(victim_capacity - delta)
        winner.set_capacity(winner.capacity_bytes + delta)
        self.transfers += 1
        return victim_id
