"""Log-structured memory mode: one global LRU queue at 100% utilization.

Table 2 of the paper compares slab allocation against "a global LRU queue
that simulates LSM ... with 100% memory utilization (such a scheme does not
exist in practice)". This engine implements that idealization: items of all
sizes share one byte-weighted LRU queue; an item occupies exactly its own
size (no chunk rounding, no fragmentation, no cleaner overhead).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.cache.engines import Engine, Row
from repro.cache.policies import EvictionPolicy, make_policy
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import (
    CLASS_SHIFT,
    EVICTED_SHIFT,
    OP_GET,
    OP_SET,
    OUTCOME_HIT,
)


class GlobalLRUEngine(Engine):
    """An idealized log-structured store: global LRU, perfect compaction.

    The ``policy`` argument exists because a log-structured cache could run
    any replacement scheme over its log; the paper's Table 2 uses LRU.
    Slab classes are still computed for every request so statistics remain
    comparable with the slab engines, but they play no allocation role.

    As in :class:`~repro.cache.engines.SlabEngineBase`, a key map says
    what is resident: a GET hit promotes with the policy's ``touch`` (no
    residency test), a store records the key and the policy's ``store``
    deletes each victim from the map, and a resize forgets what it
    evicts.
    """

    def __init__(
        self,
        app: str,
        budget_bytes: float,
        geometry: SlabGeometry,
        policy: str = "lru",
    ) -> None:
        super().__init__(app, budget_bytes, geometry)
        self.queue: EvictionPolicy = make_policy(
            policy, budget_bytes, name=f"{app}/log"
        )
        #: Resident key -> slab class.
        self._resident: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def capacities(self) -> Dict[int, float]:
        # The whole budget backs a single logical queue; report it under a
        # pseudo-class -1 so timeline code has something to plot.
        return {-1: self.queue.capacity}

    def used_bytes(self) -> float:
        return self.queue.used

    def _resize(self) -> int:
        """Resize the log to the budget; forget and count what it evicts."""
        evicted = self.queue.resize(self.budget_bytes)
        for key, _ in evicted:
            self._resident.pop(key, None)
        return len(evicted)

    def _enforce_budget(self) -> int:
        evicted = self._resize()
        self.ops.evictions += evicted
        return evicted

    def grow_budget(self, delta_bytes: float) -> None:
        super().grow_budget(delta_bytes)
        self._resize()

    # ------------------------------------------------------------------

    def process_run(self, rows: Iterable[Row]) -> List[int]:
        queue = self.queue
        touch = queue.touch
        resident = self._resident
        lookups = promotes = inserts = evictions = 0
        codes: List[int] = []
        append = codes.append
        for key, op, class_index, item_bytes in rows:
            class_code = (class_index + 1) << CLASS_SHIFT
            if op == OP_GET:
                lookups += 1
                if key in resident:
                    touch(key)
                    promotes += 1
                    append((class_code | OUTCOME_HIT) << 2)
                    continue
            elif op != OP_SET:  # DELETE
                lookups += 1
                if resident.pop(key, None) is not None:
                    queue.remove(key)
                    class_code |= OUTCOME_HIT
                append((class_code << 2) | op)
                continue
            # Recorded first: the store may evict the key it just stored.
            resident[key] = class_index
            evicted = queue.store(key, item_bytes, resident)
            inserts += 1
            evictions += evicted
            append((((evicted << EVICTED_SHIFT) | class_code) << 2) | op)
        ops = self.ops
        ops.hash_lookups += lookups
        ops.promotes += promotes
        ops.inserts += inserts
        ops.evictions += evictions
        return codes
