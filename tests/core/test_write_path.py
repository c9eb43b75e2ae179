"""Differential tests: the one-frame write path against the old one.

:meth:`CliffhangerQueue.insert` runs the stale-pointer count inline,
purges the key with inline membership tests and stores it with
``fill``'s one-key-per-boundary ladder; :meth:`CliffhangerQueue.remove`
stops at the first partition that held the key. Their oracle,
``tests/core/reference_write.py::PurgeQueue``, calls
``_decay_pointers`` on every store, purges through ``_Partition.discard``,
runs the whole cascade and purges both partitions on a DELETE. Driven in
lockstep through GETs (``access``, then ``fill`` on a miss), SETs,
DELETEs, resizes and scans, both must return the same values and hold
the same segments and scalars after every call, and the live queue must
keep every key in at most one segment of the whole queue.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CacheError
from repro.common.hashing import routing_hash
from repro.core.cliff_scaling import (
    ACCESS_HIT,
    SEG_HILL,
    SEG_MAIN,
    CliffhangerQueue,
)
from tests.core.reference_write import PurgeQueue
from tests.core.test_reference_parity import (
    CHUNK,
    CONFIG,
    ITEMS,
    SCAN_KEYS,
    in_partition,
    scalars,
    segments,
)


class Pair:
    """The one-frame queue and the purge-and-cascade oracle, driven in
    lockstep."""

    def __init__(self, config=CONFIG) -> None:
        self.queue = CliffhangerQueue("q", ITEMS * CHUNK, config)
        self.oracle = PurgeQueue("q", ITEMS * CHUNK, config)
        #: SETs that repartitioned or reset a stale search, and per
        #: segment, SETs that purged the key from that segment of the
        #: partition the key does not route to.
        self.applied = self.resets = 0
        self.purged_other = [0, 0, 0, 0]

    def both(self, method: str, *args):
        queue, oracle = self.queue, self.oracle
        result = getattr(queue, method)(*args)
        assert result == getattr(oracle, method)(*args), (method, args)
        assert segments(queue) == segments(oracle), (method, args)
        assert scalars(queue) == scalars(oracle), (method, args)
        queue.check_invariants()
        return result

    def get(self, key: str) -> None:
        """GET with fill on miss, as the engine does it."""
        if self.both("access", key) != ACCESS_HIT:
            self.both("fill", key, CHUNK)

    def insert(self, key: str) -> None:
        queue = self.queue
        repartitions, merges = queue.repartitions, queue.merges
        routed = queue.right
        if queue._split and routing_hash(key, queue.config.salt_mix) < queue.ratio:
            routed = queue.left
        other = queue.left if routed is queue.right else queue.right
        elsewhere = None
        if not in_partition(routed, key):
            elsewhere = next(
                (index for index, keys in enumerate(other.sets) if key in keys),
                None,
            )
        self.both("insert", key, CHUNK)
        self.applied += queue.repartitions > repartitions
        self.resets += queue.merges > merges
        if elsewhere is not None:
            self.purged_other[elsewhere] += 1

    def scan(self, laps: int, write: bool = False) -> None:
        for _ in range(laps):
            for index in range(SCAN_KEYS):
                key = f"k{index}"
                if write:
                    self.insert(key)
                else:
                    self.get(key)


KEYS = st.integers(0, SCAN_KEYS + 11).map("k{}".format)
#: Capacities in chunks: zero, under the size gate (16 items), at it,
#: the scan's working set and past it.
CAPACITIES = st.sampled_from([0, 3, 12, 16, 24, 32, 40, 64])
OPS = st.one_of(
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("insert"), KEYS),
    st.tuples(st.just("remove"), KEYS),
    st.tuples(st.just("set_capacity"), CAPACITIES),
    st.tuples(st.just("scan"), st.integers(1, 2)),
    st.tuples(st.just("set_scan"), st.integers(1, 2)),
)


@settings(max_examples=50, deadline=None)
@given(
    resize_on_miss=st.booleans(),
    warm_up_laps=st.integers(0, 9),
    ops=st.lists(OPS, max_size=120),
)
def test_write_path_matches_the_purge_and_cascade(
    resize_on_miss, warm_up_laps, ops
):
    """Property: from an unsplit, split or reverted queue (zero to nine
    warm-up laps of GETs), any sequence of GETs, SETs, DELETEs, resizes
    across the size gate and to zero, and GET or SET scans leaves both
    queues in the same state after every call, with the same returns."""
    config = CONFIG if resize_on_miss else replace(CONFIG, resize_on_miss=False)
    pair = Pair(config)
    pair.scan(warm_up_laps)
    for op, argument in ops:
        if op == "get":
            pair.get(argument)
        elif op == "insert":
            pair.insert(argument)
        elif op == "remove":
            pair.both("remove", argument)
        elif op == "set_capacity":
            pair.both(op, argument * CHUNK)
        else:
            pair.scan(argument, write=op == "set_scan")


def test_the_walk_reaches_every_branch():
    """A fixed walk through what the one frame writes inline: on a split
    queue, GETs interleaved with SETs purge keys stored in main and in
    the hill shadow of the partition they no longer route to, raise no
    pointer event of their own until the stale search resets (a SET
    merges the queue) and apply that repartition; then every key is
    deleted."""
    pair = Pair()
    queue = pair.queue
    pair.scan(3)
    assert queue._split
    for offset in (0, 7, 7):
        for index in range(SCAN_KEYS):
            pair.get(f"k{index}")
            pair.insert(f"k{(index + offset) % SCAN_KEYS}")
    assert pair.purged_other[SEG_MAIN] > 0 and pair.purged_other[SEG_HILL] > 0
    assert pair.resets > 0 and pair.applied > 0 and not queue._split
    for index in range(SCAN_KEYS + 4):
        pair.both("remove", f"k{index}")
    assert not any(keys for _, keys in queue.left.segments())
    assert not any(keys for _, keys in queue.right.segments())


def test_a_key_in_both_partitions_fails_the_invariants():
    queue = CliffhangerQueue("q", ITEMS * CHUNK, CONFIG)
    queue.insert("k0", CHUNK)
    queue.check_invariants()
    queue.left.cliff["k0"] = None
    with pytest.raises(CacheError, match="both partitions"):
        queue.check_invariants()
