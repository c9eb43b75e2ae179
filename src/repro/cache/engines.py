"""Memory-management engines.

An engine owns one application's reservation on one cache server and
decides how those bytes are divided among eviction queues. The paper's
baselines live here:

* :class:`FirstComeFirstServeEngine` -- stock Memcached behaviour: slab
  classes grab memory greedily as requests arrive; once the reservation is
  full each class evicts from its own LRU queue (paper section 2).
* :class:`PlannedEngine` -- a static per-class plan, used to apply the
  Dynacache solver's allocation (paper section 2.1 / Figure 2) or a plan
  given by hand.

Every request path enters an engine through :meth:`Engine.process_run`:
one call per (shard, app) run of rows. A GET hit is one iteration of its
loop plus the policy's ``touch`` (under LRU a C call, no Python frame),
a steady-state miss or SET one iteration plus its ``store``. The
engine's own ``_admit`` runs only at start-up, for a starved class or a
planned one; start-up growth is one step inside it, with no resize.

The Cliffhanger engines (hill climbing, cliff scaling, combined) extend
the same interface from :mod:`repro.core.engine`; the log-structured
global-LRU engine is in :mod:`repro.cache.log_structured`.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Tuple

from repro.common.errors import CacheError, ConfigurationError
from repro.cache.policies import EvictionPolicy, make_policy
from repro.cache.policies.base import Evicted
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import (
    CLASS_SHIFT,
    EVICTED_SHIFT,
    OP_GET,
    OP_SET,
    OUTCOME_HIT,
    OpCounter,
)

#: One request as an engine takes it: ``(key, op, class_index,
#: item_bytes)``. The item's chunk is ``geometry.chunk_sizes[class_index]``
#: of the engine's own ladder, read on the store path only.
Row = Tuple[object, int, int, int]


class Engine(abc.ABC):
    """Base class: one tenant's memory manager.

    Subclasses implement :meth:`process_run` -- the allocation-free hot
    path, one call per run of pre-classified integer rows, returning a
    packed outcome per row, and every request path's one entry point --
    and expose per-class capacities for the timeline experiments.
    Budgets are bytes.
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

    @abc.abstractmethod
    def process_run(self, rows: Iterable[Row]) -> List[int]:
        """Apply one run of pre-classified requests, in order; return
        ``(code << 2) | op`` per row, the replay kernel's tally format.

        Each row is ``(key, op, class_index, item_bytes)``: ``op`` is an
        integer op code (:data:`repro.cache.stats.OP_GET` etc.); the rest
        is the row :meth:`repro.cache.slabs.SlabGeometry.row` / ``rows``
        computes, less its chunk, which is :attr:`geometry`'s
        ``chunk_sizes[class_index]`` (``item_bytes`` is key + value,
        header excluded; only engines without chunk rounding read it).
        ``code`` packs hit / shadow-hit flags, the slab class charged for
        statistics and the eviction count (see
        :func:`repro.cache.stats.pack_outcome`). Operation counts reach
        :attr:`ops` by the time the call returns.
        """

    def process_fast(
        self, key: object, op: int, class_index: int, chunk: int,
        item_bytes: int,
    ) -> int:
        """One request as a run of one row; its packed outcome code.
        ``chunk`` must be this engine's ladder's chunk for the class
        (:class:`CacheError` otherwise): a row carries no chunk, so one
        from another ladder would be charged at this one's."""
        if chunk != self.geometry.chunk_sizes[class_index]:
            raise CacheError(
                f"chunk {chunk}B is not {self.app!r}'s slab class "
                f"{class_index} ({self.geometry.chunk_sizes[class_index]}B)"
            )
        return self.process_run(((key, op, class_index, item_bytes),))[0] >> 2

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

    @abc.abstractmethod
    def _enforce_budget(self) -> int:
        """Shrink internal queues until within budget; returns the
        evicted item count."""


class SlabEngineBase(Engine):
    """Shared plumbing for engines that keep one policy queue per slab
    class: lazily-created queues, key→class tracking (items can change
    class when re-SET with a different size), and GET/SET/DELETE routing.

    A store records the key in ``_class_of_key``, then the policy's
    ``store`` deletes each victim from it (the key too, if evicted at
    once); :meth:`_admit` may grow, steal or bypass first.
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
        #: resize goes through :meth:`_resize_queue` (start-up growth
        #: adds its chunk in place) so the insert hot path never re-scans
        #: the queues.
        self._capacity_total = 0.0

    # -- queue management ------------------------------------------------

    def _queue(self, class_index: int) -> EvictionPolicy:
        """Create class ``class_index``'s queue, with no memory yet."""
        queue = self.queues[class_index] = make_policy(
            self.policy_kind, 0.0, name=f"{self.app}/slab{class_index}"
        )
        return queue

    def _resize_queue(self, queue: EvictionPolicy, capacity: float) -> Evicted:
        """Resize ``queue`` keeping the tracked capacity total in sync."""
        self._capacity_total += float(capacity) - queue.capacity
        return queue.resize(capacity)

    def capacities(self) -> Dict[int, float]:
        return {
            idx: queue.capacity for idx, queue in sorted(self.queues.items())
        }

    def used_bytes(self) -> float:
        return sum(queue.used for queue in self.queues.values())

    def _forget_evicted(self, evicted: Evicted) -> int:
        for key, _ in evicted:
            self._class_of_key.pop(key, None)
        self.ops.evictions += len(evicted)
        return len(evicted)

    # -- request handling --------------------------------------------------

    def process_run(self, rows: Iterable[Row]) -> List[int]:
        # One class lookup per request; a key in ``class_of_key`` is
        # resident in its class's queue.
        # The capacity total is read per row: an ``_admit`` grows it.
        queues = self.queues
        chunks = self.geometry.chunk_sizes
        class_of_key = self._class_of_key
        fill_on_miss = self.fill_on_miss
        lookups = promotes = inserts = evictions = 0
        codes: List[int] = []
        append = codes.append
        for key, op, class_index, item_bytes in rows:
            if op == OP_GET:
                lookups += 1
                resident_class = class_of_key.get(key)
                if resident_class is not None:
                    # Resident in that class's queue: promote, test nothing.
                    queues[resident_class].touch(key)
                    promotes += 1
                    append(
                        (((resident_class + 1) << CLASS_SHIFT) | OUTCOME_HIT) << 2
                    )
                    continue
                if not fill_on_miss:
                    append((class_index + 1) << CLASS_SHIFT << 2)
                    continue
            elif op == OP_SET:
                resident_class = class_of_key.get(key)
            else:  # DELETE
                lookups += 1
                resident_class = class_of_key.pop(key, None)
                if resident_class is None:
                    append(((class_index + 1) << CLASS_SHIFT << 2) | op)
                    continue
                queues[resident_class].remove(key)
                append(
                    ((((class_index + 1) << CLASS_SHIFT) | OUTCOME_HIT) << 2) | op
                )
                continue
            if resident_class is not None and resident_class != class_index:
                queues[resident_class].remove(key)  # the item changed class
                del class_of_key[key]
            queue = queues.get(class_index)
            if queue is None:
                queue = self._queue(class_index)
            chunk = chunks[class_index]
            if (
                queue.capacity < chunk
                or self._capacity_total + chunk <= self.budget_bytes
            ) and not self._admit(queue, class_index, chunk):
                append(((class_index + 1) << CLASS_SHIFT << 2) | op)  # not resident
                continue
            # Recorded first: the store may evict the key it just stored.
            class_of_key[key] = class_index
            evicted = queue.store(key, chunk, class_of_key)
            inserts += 1
            evictions += evicted
            code = (evicted << EVICTED_SHIFT) | ((class_index + 1) << CLASS_SHIFT)
            append((code << 2) | op)
        ops = self.ops
        ops.hash_lookups += lookups
        ops.promotes += promotes
        ops.inserts += inserts
        ops.evictions += evictions
        return codes

    @abc.abstractmethod
    def _admit(self, queue: EvictionPolicy, class_index: int, chunk: int) -> bool:
        """Make room for one ``chunk`` in ``queue`` while it owns less
        than a chunk or the reservation has room; False bypasses the
        store (the item is *not* resident)."""


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

    def _admit(self, queue: EvictionPolicy, class_index: int, chunk: int) -> bool:
        capacity = queue.capacity
        if queue.used + chunk > capacity:
            if self._capacity_total + chunk <= self.budget_bytes:
                # Growth, in one step: a larger capacity evicts nothing.
                queue.capacity = grown = capacity + chunk
                self._capacity_total += grown - capacity
            elif capacity < chunk:
                # Steal a chunk from the largest class. If no class owns a
                # whole chunk, this queue can never fit the item: bypass
                # the store, like a starved PlannedEngine class.
                donors = [
                    (donor.capacity, idx)
                    for idx, donor in self.queues.items()
                    if idx != class_index and donor.capacity >= chunk
                ]
                if not donors:
                    return False
                donor = self.queues[max(donors)[1]]
                self._forget_evicted(self._resize_queue(donor, donor.capacity - chunk))
                self._resize_queue(queue, capacity + chunk)
        return True

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

    def _admit(self, queue: EvictionPolicy, class_index: int, chunk: int) -> bool:
        return queue.capacity >= chunk  # a starved class bypasses the cache

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
