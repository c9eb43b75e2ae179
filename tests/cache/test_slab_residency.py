"""The slab engines' residency bookkeeping as a state machine.

A slab engine keeps one policy queue per class and a key -> class map
(``_class_of_key``) that must say exactly which keys the queues hold.
Hypothesis drives :class:`FirstComeFirstServeEngine` and
:class:`PlannedEngine` over every registered policy with GETs, SETs and
DELETEs across two slab classes (so keys migrate between classes),
plus budget shrinks and grows, and checks after every step:

* ``_class_of_key`` equals the union of the queues' keys, and each key
  maps to the queue that holds it;
* ``_capacity_total`` is the sum of the queues' capacities;
* no queue holds more bytes than its capacity;
* a GET or DELETE hits exactly when the key was resident, and only for a
  key stored and not deleted since.

The log-structured engine keeps the same kind of map over its one queue
(``GlobalLRUEngine._resident``); :class:`LogResidency` holds it to the
queue's keys the same way, with items of several sizes, one of them
larger than the smallest budget.
"""

import math

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cache.engines import FirstComeFirstServeEngine, PlannedEngine
from repro.cache.log_structured import GlobalLRUEngine
from repro.cache.policies import POLICIES
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import OP_DELETE, OP_GET, OP_SET, OUTCOME_HIT

GEO = SlabGeometry.default()
#: Two adjacent classes (256 and 512 B chunks), so keys migrate.
CLASSES = (2, 3)
KEYS = st.integers(0, 3).map(lambda i: f"k{i}")

#: FCFS reservations of one and two chunks of class 2 (class 3 can steal
#: only from the second); plans that leave slack unplanned, starve class
#: 3, or give each class a part chunk. Few keys and one-chunk queues keep
#: queues full, where a policy can evict what it just stored.
FCFS_BUDGETS = (256, 512)
PLANS = (
    ({2: 256.0, 3: 512.0}, 1024),
    ({2: 512.0}, 512),
    ({2: 300.0, 3: 400.0}, 700),
)


class SlabResidency(RuleBasedStateMachine):
    @initialize(
        policy=st.sampled_from(sorted(POLICIES)),
        planned=st.booleans(),
        budget=st.sampled_from(FCFS_BUDGETS),
        plan=st.sampled_from(PLANS),
    )
    def build(self, policy, planned, budget, plan):
        if planned:
            self.engine = PlannedEngine(
                "a", plan[1], GEO, dict(plan[0]), policy=policy
            )
        else:
            self.engine = FirstComeFirstServeEngine(
                "a", budget, GEO, policy=policy
            )
        self.live = set()  # stored and not deleted since

    def _resident(self, key):
        return any(key in queue for queue in self.engine.queues.values())

    def _process(self, key, op, class_index):
        chunk = GEO.chunk_size(class_index)
        return self.engine.process_fast(key, op, class_index, chunk, chunk)

    @rule(key=KEYS, class_index=st.sampled_from(CLASSES))
    def get(self, key, class_index):
        resident = self._resident(key)
        hit = bool(self._process(key, OP_GET, class_index) & OUTCOME_HIT)
        assert hit == resident
        assert not hit or key in self.live
        self.live.add(key)  # a miss fills

    @rule(key=KEYS, class_index=st.sampled_from(CLASSES))
    def set(self, key, class_index):
        self._process(key, OP_SET, class_index)
        self.live.add(key)

    @rule(key=KEYS, class_index=st.sampled_from(CLASSES))
    def delete(self, key, class_index):
        resident = self._resident(key)
        hit = bool(self._process(key, OP_DELETE, class_index) & OUTCOME_HIT)
        assert hit == resident
        assert not hit or key in self.live
        self.live.discard(key)
        assert not self._resident(key)

    @rule(delta=st.sampled_from((64.0, 256.0, 700.0)))
    def shrink_budget(self, delta):
        self.engine.shrink_budget(delta)

    @rule(delta=st.sampled_from((128.0, 256.0, 512.0)))
    def grow_budget(self, delta):
        self.engine.grow_budget(delta)

    @invariant()
    def bookkeeping_matches_the_queues(self):
        queues = self.engine.queues.values()
        held = {
            key: class_index
            for class_index, queue in self.engine.queues.items()
            for key in queue.keys()
        }
        assert sum(len(q) for q in queues) == len(held)
        assert self.engine._class_of_key == held
        # A planned shrink scales capacities by a float ratio, so the
        # tracked total and the sum may round differently.
        assert math.isclose(
            self.engine._capacity_total,
            sum(q.capacity for q in queues),
            rel_tol=1e-12,
            abs_tol=1e-9,
        )
        for queue in queues:
            assert queue.used <= queue.capacity


TestSlabResidency = SlabResidency.TestCase
TestSlabResidency.settings = settings(
    max_examples=300, stateful_step_count=25, deadline=None
)


class LogResidency(RuleBasedStateMachine):
    @initialize(
        policy=st.sampled_from(sorted(POLICIES)),
        budget=st.sampled_from((300.0, 1000.0)),
    )
    def build(self, policy, budget):
        self.engine = GlobalLRUEngine("a", budget, GEO, policy=policy)
        self.live = set()  # stored and not deleted since

    def _resident(self, key):
        return key in self.engine.queue

    def _process(self, key, op, item_bytes):
        class_index, chunk, _ = GEO.row(len(key), item_bytes)
        return self.engine.process_fast(key, op, class_index, chunk, item_bytes)

    @rule(key=KEYS, item_bytes=st.sampled_from((100, 250, 400)))
    def get(self, key, item_bytes):
        resident = self._resident(key)
        hit = bool(self._process(key, OP_GET, item_bytes) & OUTCOME_HIT)
        assert hit == resident
        assert not hit or key in self.live
        self.live.add(key)  # a miss fills

    @rule(key=KEYS, item_bytes=st.sampled_from((100, 250, 400)))
    def set(self, key, item_bytes):
        self._process(key, OP_SET, item_bytes)
        self.live.add(key)

    @rule(key=KEYS)
    def delete(self, key):
        resident = self._resident(key)
        hit = bool(self._process(key, OP_DELETE, 100) & OUTCOME_HIT)
        assert hit == resident
        assert not hit or key in self.live
        self.live.discard(key)
        assert not self._resident(key)

    @rule(delta=st.sampled_from((100.0, 400.0)))
    def shrink_budget(self, delta):
        self.engine.shrink_budget(delta)

    @rule(delta=st.sampled_from((100.0, 400.0)))
    def grow_budget(self, delta):
        self.engine.grow_budget(delta)

    @invariant()
    def bookkeeping_matches_the_queue(self):
        queue = self.engine.queue
        assert set(self.engine._resident) == set(queue.keys())
        assert len(self.engine._resident) == len(queue)
        assert queue.used <= queue.capacity


TestLogResidency = LogResidency.TestCase
TestLogResidency.settings = settings(
    max_examples=150, stateful_step_count=25, deadline=None
)
