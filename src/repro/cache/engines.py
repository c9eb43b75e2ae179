"""Memory-management engines.

An engine owns one application's reservation on one cache server and
decides how those bytes are divided among eviction queues. The paper's
baselines live here:

* :class:`FirstComeFirstServeEngine` -- stock Memcached behaviour: slab
  classes grab memory greedily as requests arrive; once the reservation is
  full each class evicts from its own LRU queue (paper section 2).
* :class:`PlannedEngine` -- a static per-class plan, used to apply the
  Dynacache solver's allocation (paper section 2.1 / Figure 2) or any
  other allocator's output.

The Cliffhanger engines (hill climbing, cliff scaling, combined) extend
the same interface from :mod:`repro.core.engine`; the log-structured
global-LRU engine is in :mod:`repro.cache.log_structured`.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.cache.policies import EvictionPolicy, make_policy
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import (
    CLASS_SHIFT,
    EVICTED_SHIFT,
    OP_CODES,
    OP_GET,
    OP_SET,
    OUTCOME_HIT,
    OUTCOME_SHADOW_HIT,
    AccessOutcome,
    OpCounter,
    unpack_slab_class,
)
from repro.workloads.trace import Request


class Engine(abc.ABC):
    """Base class: one tenant's memory manager.

    Subclasses implement :meth:`process_fast` -- the allocation-free hot
    path taking pre-classified integer arguments and returning a packed
    outcome code -- and expose per-class capacities for the timeline
    experiments. :meth:`process` wraps the fast path in the
    :class:`Request`/:class:`AccessOutcome` object API. Budgets are bytes.
    """

    def __init__(
        self,
        app: str,
        budget_bytes: float,
        geometry: SlabGeometry,
        fill_on_miss: bool = True,
    ) -> None:
        if budget_bytes <= 0:
            raise ConfigurationError(
                f"budget must be positive, got {budget_bytes}"
            )
        self.app = app
        self.budget_bytes = float(budget_bytes)
        self.geometry = geometry
        #: Whether a GET miss inserts the object (trace-replay
        #: convention). The micro-benchmarks disable it so GET and SET
        #: costs are attributable separately, like the paper's protocol.
        self.fill_on_miss = fill_on_miss
        self.ops = OpCounter()

    # ------------------------------------------------------------------

    def process(self, request: Request) -> AccessOutcome:
        """Apply one request and report its outcome (object API)."""
        code = self.process_fast(
            request.key,
            OP_CODES[request.op],
            *self.geometry.row(request.key_size, request.value_size),
        )
        return AccessOutcome(
            hit=bool(code & OUTCOME_HIT),
            app=self.app,
            op=request.op,
            slab_class=unpack_slab_class(code),
            shadow_hit=bool(code & OUTCOME_SHADOW_HIT),
            evicted=code >> EVICTED_SHIFT,
        )

    @abc.abstractmethod
    def process_fast(
        self, key: object, op: int, class_index: int, chunk: int,
        item_bytes: int,
    ) -> int:
        """Apply one pre-classified request; return a packed outcome code.

        ``op`` is an integer op code (:data:`repro.cache.stats.OP_GET`
        etc.); ``class_index``, ``chunk`` and ``item_bytes`` are the row
        :meth:`repro.cache.slabs.SlabGeometry.row` / ``rows`` computes
        (``item_bytes`` is key + value, header excluded; only engines
        without chunk rounding read it). The return value packs hit /
        shadow-hit flags, the slab class charged for statistics and the
        eviction count (see :func:`repro.cache.stats.pack_outcome`).
        """

    @abc.abstractmethod
    def capacities(self) -> Dict[int, float]:
        """Current byte capacity per slab class (diagnostic/timelines)."""

    @abc.abstractmethod
    def used_bytes(self) -> float:
        """Bytes of the reservation currently holding items."""

    # ------------------------------------------------------------------
    # Cross-application rebalancing hooks (used by cross-app allocators).
    # ------------------------------------------------------------------

    def grow_budget(self, delta_bytes: float) -> None:
        """Give the engine more memory."""
        if delta_bytes < 0:
            raise ConfigurationError("grow_budget needs a positive delta")
        self.budget_bytes += delta_bytes

    def shrink_budget(self, delta_bytes: float) -> int:
        """Take memory away; returns the number of items evicted."""
        if delta_bytes < 0:
            raise ConfigurationError("shrink_budget needs a positive delta")
        self.budget_bytes = max(0.0, self.budget_bytes - delta_bytes)
        return self._enforce_budget()

    def _enforce_budget(self) -> int:
        """Subclasses shrink internal queues until within budget; returns
        evicted item count. Default: nothing to do."""
        return 0


class SlabEngineBase(Engine):
    """Shared plumbing for engines that keep one policy queue per slab
    class: lazily-created queues, key→class tracking (items can change
    class when re-SET with a different size), and GET/SET/DELETE routing.
    """

    def __init__(
        self,
        app: str,
        budget_bytes: float,
        geometry: SlabGeometry,
        policy: str = "lru",
        fill_on_miss: bool = True,
    ) -> None:
        super().__init__(app, budget_bytes, geometry, fill_on_miss)
        self.policy_kind = policy
        self.queues: Dict[int, EvictionPolicy] = {}
        self._class_of_key: Dict[str, int] = {}
        #: Incrementally tracked sum of queue capacities -- every queue
        #: resize must go through :meth:`_resize_queue` so the insert hot
        #: path never re-scans the queues.
        self._capacity_total = 0.0

    # -- queue management ------------------------------------------------

    def _queue(self, class_index: int) -> EvictionPolicy:
        queue = self.queues.get(class_index)
        if queue is None:
            queue = make_policy(
                self.policy_kind, 0.0, name=f"{self.app}/slab{class_index}"
            )
            self.queues[class_index] = queue
        return queue

    def _resize_queue(
        self, queue: EvictionPolicy, capacity: float
    ) -> List[Tuple[object, float]]:
        """Resize ``queue`` keeping the tracked capacity total in sync."""
        self._capacity_total += float(capacity) - queue.capacity
        return queue.resize(capacity)

    def capacities(self) -> Dict[int, float]:
        return {
            idx: queue.capacity for idx, queue in sorted(self.queues.items())
        }

    def used_bytes(self) -> float:
        return sum(queue.used for queue in self.queues.values())

    def _forget_evicted(self, evicted: List[Tuple[object, float]]) -> int:
        for key, _ in evicted:
            self._class_of_key.pop(key, None)
        self.ops.evictions += len(evicted)
        return len(evicted)

    # -- request handling --------------------------------------------------

    def process_fast(
        self, key: object, op: int, class_index: int, chunk: int,
        item_bytes: int,
    ) -> int:
        if op == OP_GET:
            self.ops.hash_lookups += 1
            resident_class = self._class_of_key.get(key)
            if resident_class is not None and self._queue(
                resident_class
            ).access(key):
                self.ops.promotes += 1
                return ((resident_class + 1) << CLASS_SHIFT) | OUTCOME_HIT
            evicted = (
                self._store(key, class_index, chunk)
                if self.fill_on_miss
                else 0
            )
            return (evicted << EVICTED_SHIFT) | (
                (class_index + 1) << CLASS_SHIFT
            )
        if op == OP_SET:
            evicted = self._store(key, class_index, chunk)
            return (evicted << EVICTED_SHIFT) | (
                (class_index + 1) << CLASS_SHIFT
            )
        # DELETE path.
        self.ops.hash_lookups += 1
        resident_class = self._class_of_key.pop(key, None)
        if resident_class is not None:
            self._queue(resident_class).remove(key)
        code = (class_index + 1) << CLASS_SHIFT
        return code | OUTCOME_HIT if resident_class is not None else code

    def _store(self, key: object, class_index: int, chunk: int) -> int:
        """Insert the item, handling class migration. Returns evictions."""
        old_class = self._class_of_key.get(key)
        if old_class is not None and old_class != class_index:
            self._queue(old_class).remove(key)
            del self._class_of_key[key]
        evicted = self._insert(key, class_index, chunk)
        if evicted is None:
            # The engine bypassed the store (no queue can ever hold this
            # item): the key is not resident and must not be recorded as
            # such, or later GETs/DELETEs would see a ghost entry.
            return 0
        self._class_of_key[key] = class_index
        self.ops.inserts += 1
        return evicted

    @abc.abstractmethod
    def _insert(self, key: object, class_index: int, chunk: int) -> Optional[int]:
        """Engine-specific insertion; returns the number of evictions, or
        ``None`` when the store was bypassed (the item is *not* resident)."""


class FirstComeFirstServeEngine(SlabEngineBase):
    """Stock Memcached: greedy slab growth, per-class LRU eviction.

    Until the reservation fills up, a class needing room is simply granted
    another chunk. Once memory is exhausted, insertions evict from the
    *item's own class*. A class that owns no memory at that point steals
    one chunk from the class with the most capacity -- stock Memcached
    would fail the store instead; the steal (mirroring the slab-rebalance
    patches Twitter/Facebook deploy, paper section 2) keeps week-long
    replays from wedging while preserving the first-come-first-serve
    pathology the paper analyzes: memory goes to whoever filled it first,
    not to whoever benefits.
    """

    def _insert(self, key: object, class_index: int, chunk: int) -> Optional[int]:
        queue = self._queue(class_index)
        if queue.used + chunk > queue.capacity:
            if self._capacity_total + chunk <= self.budget_bytes:
                self._resize_queue(queue, queue.capacity + chunk)
            elif queue.capacity < chunk:
                self._steal_chunk_for(class_index, chunk)
                if queue.capacity < chunk:
                    # No donor owns a whole chunk of this size: the queue
                    # can never fit the item, so bypass the store (like a
                    # starved PlannedEngine class) instead of inserting an
                    # entry the overflow drain would immediately evict.
                    return None
        evicted = queue.insert(key, chunk)
        return self._forget_evicted(evicted)

    def _steal_chunk_for(self, class_index: int, chunk: int) -> None:
        donors = [
            (queue.capacity, idx)
            for idx, queue in self.queues.items()
            if idx != class_index and queue.capacity >= chunk
        ]
        if not donors:
            return
        _, donor_idx = max(donors)
        donor = self.queues[donor_idx]
        self._forget_evicted(self._resize_queue(donor, donor.capacity - chunk))
        grown = self.queues[class_index]
        self._resize_queue(grown, grown.capacity + chunk)

    def _enforce_budget(self) -> int:
        # Cold path (budget shrinks): re-sync the tracked total so float
        # drift can never accumulate into the hot-path comparisons.
        self._capacity_total = sum(q.capacity for q in self.queues.values())
        evicted_total = 0
        while self._capacity_total > self.budget_bytes:
            donors = [
                (queue.capacity, idx)
                for idx, queue in self.queues.items()
                if queue.capacity > 0
            ]
            if not donors:
                break
            capacity, idx = max(donors)
            queue = self.queues[idx]
            chunk = self.geometry.chunk_size(idx)
            shrink = min(chunk, capacity)
            evicted_total += self._forget_evicted(
                self._resize_queue(queue, capacity - shrink)
            )
        return evicted_total


class PlannedEngine(SlabEngineBase):
    """A fixed per-class allocation, e.g. the Dynacache solver's plan.

    ``plan`` maps slab class index to byte capacity; classes absent from
    the plan get zero bytes and act as pass-through (every GET misses,
    nothing is stored), matching how a solver starves queues it considers
    worthless.
    """

    def __init__(
        self,
        app: str,
        budget_bytes: float,
        geometry: SlabGeometry,
        plan: Dict[int, float],
        policy: str = "lru",
        fill_on_miss: bool = True,
    ) -> None:
        super().__init__(
            app, budget_bytes, geometry, policy=policy,
            fill_on_miss=fill_on_miss,
        )
        total = sum(plan.values())
        if total - budget_bytes > 1e-6:
            raise ConfigurationError(
                f"plan allocates {total}B > budget {budget_bytes}B"
            )
        self.plan = dict(plan)
        for class_index, capacity in plan.items():
            if capacity < 0:
                raise ConfigurationError(
                    f"negative capacity for class {class_index}"
                )
            self._resize_queue(self._queue(class_index), capacity)

    def _insert(self, key: object, class_index: int, chunk: int) -> Optional[int]:
        queue = self._queue(class_index)
        if queue.capacity < chunk:
            return None  # class starved by the plan: bypass the cache
        evicted = queue.insert(key, chunk)
        return self._forget_evicted(evicted)

    def _enforce_budget(self) -> int:
        # Static plans shrink proportionally when the budget shrinks.
        total = sum(q.capacity for q in self.queues.values())
        self._capacity_total = total
        if total <= self.budget_bytes or total == 0:
            return 0
        scale = self.budget_bytes / total
        evicted = 0
        for queue in self.queues.values():
            evicted += self._forget_evicted(
                self._resize_queue(queue, queue.capacity * scale)
            )
        return evicted
