"""Cliffhanger engines.

The paper's combined system is Algorithm 1 run *across* a tenant's slab
queues with cliff scaling run *inside* each queue (section 4.3): the
hill-climbing engine with a different per-class queue. It is written
that way here. :class:`ClimbingEngine` is the one skeleton -- request
path, start-up pool, budget hooks, :class:`~repro.core.hill_climbing.
HillClimber` wiring -- and the two engines are its two queue factories:

* :class:`HillClimbEngine` -- Algorithm 1 only: each slab class is a
  :class:`~repro.core.managed.ShadowedQueue` over any eviction policy
  (the "Hill Climbing" column of Table 4).
* :class:`CliffhangerEngine` -- the full system: each slab class is a
  partitioned :class:`~repro.core.cliff_scaling.CliffhangerQueue` whose
  hill shadows feed the climber while cliff scaling runs inside it. The
  two algorithms toggle independently for the Table 4 ablation.

The skeleton knows its queues only through the eight-name protocol
both answer, spelled out in :mod:`repro.core.managed`. Each queue is
its own resize target in the climber.

The engines bootstrap like stock Memcached -- classes grab chunks from
the free reservation on demand -- so the adaptive algorithms start from
the first-come-first-serve allocation and *improve* it, exactly the
deployment story the paper tells (Figure 8 shows memory drifting away from
that initial allocation over days).

Unlike :class:`repro.cache.engines.SlabEngineBase`, these engines do not
track a key-to-class map: synthetic traces give every key a deterministic
size, so the slab class is a pure function of the request. A key re-SET
into a different class leaves its stale twin to age out of the old class
naturally (the standard trace-replay simplification).
"""

from __future__ import annotations

import abc
import random
from typing import Dict, Iterable, List, Optional, Union

from repro.common.constants import (
    DEFAULT_CREDIT_BYTES,
    HILL_CLIMB_SHADOW_BYTES,
    MIN_QUEUE_BYTES,
)
from repro.cache.engines import Engine, Row
from repro.cache.policies import make_policy
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import (
    CLASS_SHIFT,
    EVICTED_SHIFT,
    OP_GET,
    OP_SET,
    OUTCOME_HIT,
    OUTCOME_SHADOW_HIT,
)
from repro.core.cliff_scaling import (
    ACCESS_HILL_FIND,
    ACCESS_HIT,
    CliffConfig,
    CliffhangerQueue,
)
from repro.core.hill_climbing import HillClimber
from repro.core.managed import ShadowedQueue

ClimbingQueue = Union[ShadowedQueue, CliffhangerQueue]


class ClimbingEngine(Engine):
    """One tenant whose slab-class queues trade capacity on shadow hits.

    Subclasses supply :meth:`_make_queue`; everything a request or a
    budget change does is written once, here.
    """

    #: Partition routings charged to ``OpCounter.routes`` per request.
    routes_per_request = 0
    #: False leaves the climber registered but never fed (Table 4).
    enable_hill_climbing = True

    def __init__(
        self,
        app: str,
        budget_bytes: float,
        geometry: SlabGeometry,
        credit_bytes: float,
        min_bytes: float,
        seed: int,
        fill_on_miss: bool,
    ) -> None:
        super().__init__(app, budget_bytes, geometry, fill_on_miss)
        self.queues: Dict[int, ClimbingQueue] = {}
        self.climber = HillClimber(
            credit_bytes=credit_bytes,
            min_bytes=min_bytes,
            rng=random.Random(seed),
        )
        self._free_pool = float(budget_bytes)

    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _make_queue(self, class_index: int) -> ClimbingQueue:
        """A zero-capacity queue for ``class_index`` (it grows out of the
        free pool, then by hill climbing)."""

    def _queue(self, class_index: int) -> ClimbingQueue:
        """First request of a slab class: build its queue and enter it
        into the climber's optimization set."""
        queue = self.queues[class_index] = self._make_queue(class_index)
        self.climber.register(class_index, queue)
        return queue

    def capacities(self) -> Dict[int, float]:
        return {
            idx: queue.capacity_bytes
            for idx, queue in sorted(self.queues.items())
        }

    def used_bytes(self) -> float:
        return sum(queue.used_bytes for queue in self.queues.values())

    # ------------------------------------------------------------------

    def process_run(self, rows: Iterable[Row]) -> List[int]:
        """The request path. A GET miss fills through the queue's
        ``fill`` (its ``access`` just left the key non-resident), a SET
        stores through ``insert``; both draw start-up capacity from the
        free pool first.

        Growth is two chunks at a time: a partitioned queue splits its
        capacity in two, so a single spare chunk may not fit one item in
        either half. The pool test comes first: once start-up growth
        has spent it, a store never has to add up the queue's segments.
        The pool is read per row: growth spends it mid-run. The queue's
        ``grow`` makes the room test and the resize in one call.
        """
        queues = self.queues
        chunks = self.geometry.chunk_sizes
        on_shadow_hit = (
            self.climber.on_shadow_hit if self.enable_hill_climbing else None
        )
        fill_on_miss = self.fill_on_miss
        lookups = promotes = shadow_lookups = inserts = evictions = 0
        codes: List[int] = []
        append = codes.append
        for key, op, class_index, item_bytes in rows:
            queue = queues.get(class_index)
            if queue is None:
                queue = self._queue(class_index)
            code = (class_index + 1) << CLASS_SHIFT
            if op == OP_GET:
                lookups += 1
                result = queue.access(key)
                if result == ACCESS_HIT:
                    promotes += 1
                    append((code | OUTCOME_HIT) << 2)
                    continue
                shadow_lookups += 1
                if result == ACCESS_HILL_FIND:
                    code |= OUTCOME_SHADOW_HIT
                    if on_shadow_hit is not None:
                        on_shadow_hit(class_index)
                if not fill_on_miss:
                    append(code << 2)
                    continue
            elif op != OP_SET:
                # DELETE: a key remembered only by a shadow is not a hit.
                lookups += 1
                if queue.remove(key):
                    code |= OUTCOME_HIT
                append((code << 2) | op)
                continue
            chunk = chunks[class_index]
            growth = 2 * chunk
            if self._free_pool >= growth and queue.grow(growth):
                self._free_pool -= growth
            # Storing must clear any shadow entry for the key (real
            # implementations look the key up in the shadow hash).
            shadow_lookups += 1
            if op == OP_GET:
                evicted = queue.fill(key, chunk)
            else:
                evicted = queue.insert(key, chunk)
            inserts += 1
            evictions += evicted
            append((((evicted << EVICTED_SHIFT) | code) << 2) | op)
        ops = self.ops
        ops.routes += self.routes_per_request * len(codes)
        ops.hash_lookups += lookups
        ops.promotes += promotes
        ops.shadow_lookups += shadow_lookups
        ops.inserts += inserts
        ops.evictions += evictions
        ops.shadow_inserts += evictions  # evictions land in the shadow
        return codes

    # ------------------------------------------------------------------

    def _enforce_budget(self) -> int:
        capacity = sum(queue.capacity_bytes for queue in self.queues.values())
        excess = self._free_pool + capacity - self.budget_bytes
        if excess <= 0:
            return 0
        taken_from_pool = min(self._free_pool, excess)
        self._free_pool -= taken_from_pool
        excess -= taken_from_pool
        evicted = 0
        if excess > 0 and capacity > 0:
            scale = max(0.0, 1.0 - excess / capacity)
            for queue in self.queues.values():
                evicted += queue.set_capacity(queue.capacity_bytes * scale)
        return evicted

    def grow_budget(self, delta_bytes: float) -> None:
        super().grow_budget(delta_bytes)
        self._free_pool += delta_bytes


class HillClimbEngine(ClimbingEngine):
    """Algorithm 1 across slab classes, with any eviction policy."""

    def __init__(
        self,
        app: str,
        budget_bytes: float,
        geometry: SlabGeometry,
        policy: str = "lru",
        shadow_bytes: float = HILL_CLIMB_SHADOW_BYTES,
        credit_bytes: float = DEFAULT_CREDIT_BYTES,
        min_bytes: float = MIN_QUEUE_BYTES,
        seed: int = 0,
        fill_on_miss: bool = True,
    ) -> None:
        super().__init__(
            app, budget_bytes, geometry, credit_bytes, min_bytes, seed,
            fill_on_miss,
        )
        self.policy_kind = policy
        self.shadow_bytes = shadow_bytes

    def _make_queue(self, class_index: int) -> ShadowedQueue:
        name = f"{self.app}/slab{class_index}"
        return ShadowedQueue(
            make_policy(self.policy_kind, 0.0, name=name),
            shadow_bytes=self.shadow_bytes,
            name=name,
        )


class CliffhangerEngine(ClimbingEngine):
    """The combined system: hill climbing + cliff scaling (section 4.3)."""

    routes_per_request = 1  # left/right partition routing

    def __init__(
        self,
        app: str,
        budget_bytes: float,
        geometry: SlabGeometry,
        enable_hill_climbing: bool = True,
        enable_cliff_scaling: bool = True,
        hill_shadow_bytes: float = HILL_CLIMB_SHADOW_BYTES,
        credit_bytes: float = DEFAULT_CREDIT_BYTES,
        min_bytes: float = MIN_QUEUE_BYTES,
        seed: int = 0,
        resize_on_miss: bool = True,
        probe_items: Optional[int] = None,
        min_cliff_items: Optional[int] = None,
        fill_on_miss: bool = True,
    ) -> None:
        super().__init__(
            app, budget_bytes, geometry, credit_bytes, min_bytes, seed,
            fill_on_miss,
        )
        self.enable_hill_climbing = enable_hill_climbing
        self.enable_cliff_scaling = enable_cliff_scaling
        self.hill_shadow_bytes = hill_shadow_bytes
        self.credit_bytes = credit_bytes
        self.resize_on_miss = resize_on_miss
        # Scaled-down experiments shrink the probe/gate constants along
        # with their queues; None keeps the paper defaults.
        self.probe_items = probe_items
        self.min_cliff_items = min_cliff_items

    def _make_queue(self, class_index: int) -> CliffhangerQueue:
        overrides = {}
        if self.probe_items is not None:
            overrides["probe_items"] = self.probe_items
        if self.min_cliff_items is not None:
            overrides["min_queue_items_for_cliff"] = self.min_cliff_items
        config = CliffConfig(
            chunk_size=self.geometry.chunk_size(class_index),
            hill_shadow_bytes=self.hill_shadow_bytes,
            credit_bytes=self.credit_bytes,
            salt=class_index + 1,
            resize_on_miss=self.resize_on_miss,
            **overrides,
        )
        return CliffhangerQueue(
            name=f"{self.app}/slab{class_index}",
            capacity_bytes=0.0,
            config=config,
            enable_cliff_scaling=self.enable_cliff_scaling,
        )
