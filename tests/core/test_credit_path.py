"""Differential tests: the credit path against its plain fan-out.

:class:`CliffhangerQueue` resizes only the partitions whose targets
move and marks no repartition for a pointer event that leaves it
unsplit; :class:`HillClimber` reads each target's ``capacity_bytes``
and returns at once for a lone winner. Their oracles in
``tests/core/reference_credit.py`` do neither. Driven in lockstep, both
sides must agree on every return value, every segment and every scalar
after every call -- except two: the lean queue counts fewer
``repartitions`` and leaves ``_pending_resize`` unset where the oracle's
repartition would change nothing, so those two may only be lower.
"""

import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.cliff_scaling import ACCESS_HIT, CliffhangerQueue
from repro.core.hill_climbing import CallbackTarget, HillClimber
from tests.core.reference_credit import ClosureClimber, FanOutQueue
from tests.core.test_hill_climbing import FakeQueue
from tests.core.test_reference_parity import (
    CHUNK,
    CONFIG,
    ITEMS,
    SCAN_KEYS,
    segments,
)

#: Where the two sides may differ, in one direction only.
LOWER_ON_THE_LEAN_SIDE = ("repartitions", "_pending_resize")


def scalars(queue):
    """``test_reference_parity.scalars`` without the two fields the
    lean queue may hold lower."""
    return {
        name: value
        for name, value in vars(queue).items()
        if name not in ("left", "right") + LOWER_ON_THE_LEAN_SIDE
    }


class Pair:
    """The lean queue and the fan-out oracle, driven in lockstep."""

    def __init__(self, config, capacity: int) -> None:
        self.queue = CliffhangerQueue("q", capacity, config)
        self.oracle = FanOutQueue("q", capacity, config)
        #: Calls after which the lean queue had counted fewer
        #: repartitions than the oracle.
        self.saved = 0

    def both(self, method: str, *args):
        queue, oracle = self.queue, self.oracle
        result = getattr(queue, method)(*args)
        assert result == getattr(oracle, method)(*args), (method, args)
        assert segments(queue) == segments(oracle), (method, args)
        assert scalars(queue) == scalars(oracle), (method, args)
        assert queue.repartitions <= oracle.repartitions, (method, args)
        assert queue._pending_resize <= oracle._pending_resize, (method, args)
        self.saved += queue.repartitions < oracle.repartitions
        for partition in (queue.left, queue.right):
            partition.check_invariants()
        return result

    def get(self, key: str, resize=None) -> None:
        """GET with fill on miss, as the engine does it: a miss may
        resize the queue (``(method, bytes)``: a credit transfer or
        start-up growth) between its ``access`` and its ``fill``."""
        if self.both("access", key) != ACCESS_HIT:
            if resize is not None:
                self.both(*resize)
            self.both("fill", key, CHUNK)

    def scan(self, laps: int, resize=None) -> None:
        for _ in range(laps):
            for index in range(SCAN_KEYS):
                self.get(f"k{index}", resize)


KEYS = st.integers(0, SCAN_KEYS + 11).map("k{}".format)
#: Capacities in chunks: zero, under the size gate (16 items), at it,
#: the scan's working set and past it.
CAPACITIES = st.sampled_from([0, 3, 12, 15, 16, 24, 32, 40, 64])
RESIZES = st.none() | st.tuples(
    st.just("set_capacity"), CAPACITIES.map(CHUNK.__mul__)
) | st.tuples(st.just("grow"), st.sampled_from([CHUNK, 2 * CHUNK]))
OPS = st.one_of(
    st.tuples(st.just("get"), KEYS, RESIZES),
    st.tuples(st.just("insert"), KEYS),
    st.tuples(st.just("remove"), KEYS),
    st.tuples(st.just("set_capacity"), CAPACITIES),
    st.tuples(st.just("grow"), st.integers(1, 4)),
    st.tuples(st.just("scan"), st.integers(1, 2), RESIZES),
)


@settings(max_examples=40, deadline=None)
@given(
    resize_on_miss=st.booleans(),
    capacity=CAPACITIES,
    warm_up_laps=st.integers(0, 9),
    ops=st.lists(OPS, max_size=100),
)
def test_control_path_matches_the_fan_out(
    resize_on_miss, capacity, warm_up_laps, ops
):
    """Property: from an unsplit, split or reverted queue (zero to nine
    warm-up laps) resized to any size (zero, under or over the size
    gate), any sequence of GETs, SETs, DELETEs, resizes across the gate
    and to zero, start-up growth and scans -- with a resize between a
    miss's ``access`` and its ``fill`` -- leaves both queues in the same
    state after every call."""
    config = CONFIG if resize_on_miss else replace(CONFIG, resize_on_miss=False)
    pair = Pair(config, ITEMS * CHUNK)
    pair.scan(warm_up_laps)
    pair.both("set_capacity", capacity * CHUNK)
    for op, argument, *resize in ops:
        if op == "get":
            pair.get(argument, *resize)
        elif op == "scan":
            pair.scan(argument, *resize)
        elif op in ("set_capacity", "grow"):
            pair.both(op, argument * CHUNK)
        else:
            pair.both(op, argument)


def test_the_walk_reaches_every_shortcut():
    """A fixed walk through what the lean side skips: pointer events on
    an unsplit queue, a split, and the merge a tail-probe hit makes --
    followed, before the miss that would apply it, by a resize to the
    same size -- then resizes to zero and back while unsplit."""
    pair = Pair(CONFIG, ITEMS * CHUNK)
    pair.scan(2)
    queue = pair.queue
    assert pair.saved > 0
    assert queue.splits == 1 and queue._split
    pair.scan(3, ("set_capacity", ITEMS * CHUNK))
    assert queue.merges == 1 and not queue._split
    for size in (12, 0, 40, 16, 0, 3):
        pair.both("set_capacity", size * CHUNK)
        pair.scan(1)


def build_climbers(capacities, credit, floor, seed):
    """The climber over queue targets (and, for odd ids, callback
    targets) and the closure-based oracle over copies of the same
    capacities."""
    lean = HillClimber(credit, floor, random.Random(seed))
    oracle = ClosureClimber(credit, floor, random.Random(seed))
    lean_queues, oracle_queues = [], []
    for index, capacity in enumerate(capacities):
        queue = FakeQueue(capacity)
        if index % 2:
            target = CallbackTarget(
                lambda q=queue: q.capacity_bytes, queue.set_capacity
            )
            lean.register(index, target)
        else:
            lean.register(index, queue)
        twin = FakeQueue(capacity)
        oracle.register(
            index, lambda q=twin: q.capacity_bytes, twin.set_capacity
        )
        lean_queues.append(queue)
        oracle_queues.append(twin)
    return lean, oracle, lean_queues, oracle_queues


@settings(max_examples=60, deadline=None)
@given(
    capacities=st.lists(
        st.floats(0, 50_000, allow_nan=False), min_size=1, max_size=6
    ),
    credit=st.sampled_from([1.0, 1024.0, 4096.0, 131072.0]),
    floor=st.sampled_from([0.0, 512.0, 4096.0]),
    seed=st.integers(0, 2**16),
    hits=st.lists(
        st.tuples(
            st.integers(0, 5),
            st.none() | st.lists(st.booleans(), min_size=6, max_size=6),
        ),
        max_size=60,
    ),
)
def test_climber_matches_the_closure_donor_list(
    capacities, credit, floor, seed, hits
):
    """Property: under random capacities, floors, credits and
    ``eligible`` masks, the victims, the transfers, every capacity and
    the RNG state match the closure-based climber after every hit."""
    lean, oracle, lean_queues, oracle_queues = build_climbers(
        capacities, credit, floor, seed
    )
    for winner, mask in hits:
        winner %= len(capacities)
        eligible = None if mask is None else mask.__getitem__
        assert lean.on_shadow_hit(winner, eligible) == oracle.on_shadow_hit(
            winner, eligible
        )
        assert lean.transfers == oracle.transfers
        assert [q.capacity_bytes for q in lean_queues] == [
            q.capacity_bytes for q in oracle_queues
        ]
        assert lean.rng.getstate() == oracle.rng.getstate()
