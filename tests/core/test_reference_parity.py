"""Differential tests: :class:`CliffhangerQueue`'s request path against
the naive :class:`tests.core.reference.ReferenceQueue`, step by step.

The constants are scaled down until a few dozen requests reach what the
paper-sized ones need tens of thousands for: a cyclic scan a few keys
wider than the queue lands every request in the cliff shadow, the right
pointer escapes, the queue splits, the ratio starts moving keys between
partitions, and the split self-evaluation reverts it and backs off.
"""

from hypothesis import given, settings, strategies as st

from repro.core.cliff_scaling import (
    ACCESS_HIT,
    SEG_HILL,
    SEG_MAIN,
    SEG_TAIL,
    CliffConfig,
    CliffhangerQueue,
)
from tests.core.reference import ReferenceQueue

CHUNK = 64
ITEMS = 32
SCAN_KEYS = ITEMS + 4
CONFIG = CliffConfig(
    chunk_size=CHUNK,
    probe_items=4,
    hill_shadow_bytes=24 * CHUNK,
    credit_bytes=2 * CHUNK,
    min_queue_items_for_cliff=16,
    stale_miss_limit=60,
    split_threshold_probes=2.0,
    split_eval_requests=50,
    split_backoff_requests=80,
)


def scalars(queue):
    """Every field but the partitions: pointers, ratio, split state and
    its timers, the hit-rate EMA, the diagnostics counters."""
    return {
        name: value
        for name, value in vars(queue).items()
        if name not in ("left", "right")
    }


def segments(queue):
    """``(capacity bytes, keys MRU first)`` per segment, per partition."""
    return [partition.segments() for partition in (queue.left, queue.right)]


def in_partition(partition, key) -> bool:
    """Whether any of ``partition``'s four segments holds ``key``."""
    return any(key in keys for keys in partition.sets)


def physical_bytes(partition) -> float:
    """A partition's physical region: main plus the tail probe."""
    return partition.capacity[SEG_MAIN] + partition.capacity[SEG_TAIL]


class Pair:
    """The queue under test and the reference, driven in lockstep."""

    def __init__(self) -> None:
        self.queue = CliffhangerQueue("q", ITEMS * CHUNK, CONFIG)
        self.reference = ReferenceQueue("q", ITEMS * CHUNK, CONFIG)
        #: Hits that moved their key to the other partition, and GETs
        #: that left a repartition waiting for the next miss.
        self.migrations = 0
        self.deferred = 0

    def both(self, method: str, *args):
        result = getattr(self.queue, method)(*args)
        assert result == getattr(self.reference, method)(*args), (method, args)
        assert segments(self.queue) == segments(self.reference), (method, args)
        assert scalars(self.queue) == scalars(self.reference), (method, args)
        for partition in (
            self.queue.left, self.queue.right,
            self.reference.left, self.reference.right,
        ):
            partition.check_invariants()
        return result

    def get(self, key: str) -> None:
        """GET with fill on miss, as the engine does it."""
        in_left = in_partition(self.queue.left, key)
        result = self.both("access", key)
        self.deferred += self.queue._pending_resize
        if result != ACCESS_HIT:
            self.both("insert", key)
        elif in_left != in_partition(self.queue.left, key):
            self.migrations += 1

    def scan(self, laps: int) -> None:
        for _ in range(laps):
            for index in range(SCAN_KEYS):
                self.get(f"k{index}")


def test_scripted_split_then_ratio_moves_and_pointer_collapse():
    """A fixed walk from a cold queue, so that the property test below
    is known to start from states that matter."""
    pair = Pair()
    queue = pair.queue
    # Cliff-shadow finds push the right pointer out and the queue
    # splits; then the left pointer moves too, the ratio leaves 1/2 and
    # hits land on keys stored in the partition they no longer route to.
    pair.scan(4)
    assert queue.splits == 1 and queue._split
    assert queue.ratio != 0.5 and pair.migrations > 0
    assert pair.deferred > 0 and queue.repartitions > 10
    # Tail-probe hits pull the right pointer back inside one probe
    # width: merged, with the plain back-off.
    pair.scan(1)
    assert queue.merges == 1 and not queue._split
    assert queue._split_backoff == CONFIG.split_backoff_requests


def test_scripted_revert_resplit_decay_and_gate():
    pair = Pair()
    queue = pair.queue
    # A hot set that fits: the hit-rate EMA climbs, nothing splits.
    for step in range(1500):
        pair.get(f"k{step % 20}")
    assert queue.splits == 0 and queue._hit_ema_value > 0.5
    # The scan splits the queue; the collapse in hit rate reverts the
    # split and doubles the back-off.
    pair.scan(3)
    assert queue.splits == 1 and queue.merges == 1 and not queue._split
    assert queue._split_backoff == 2 * CONFIG.split_backoff_requests
    # Past the back-off it splits again.
    pair.scan(3)
    assert queue.splits == 2 and queue._split and pair.migrations > 0
    # Split, the scan raises no pointer events: the search goes stale,
    # the pointers reset and the queue merges (no doubling this time).
    pair.scan(4)
    assert queue.merges == 2 and not queue._split
    assert queue._split_backoff == 2 * CONFIG.split_backoff_requests
    # Below the size gate everything is pinned back to the right.
    pair.both("set_capacity", 12 * CHUNK)
    assert not queue.cliff_active
    pair.scan(2)
    assert not any(keys for _, keys in queue.left.segments())


def test_one_repartition_shrinks_physical_while_raising_the_hill_share():
    """A repartition caps the hill shadow *after* the physical cascade,
    as the oracle's one-segment-at-a-time resizes do: keys the shrink
    pushes past the old hill limit are dropped, even though the new,
    larger limit would have room for them."""
    pair = Pair()
    pair.scan(1)
    for index in range(4):
        pair.get(f"k{index}")
    queue = pair.queue
    right = queue.right
    assert queue._split and not queue._pending_resize
    physical, hill = physical_bytes(right), right.capacity[SEG_HILL]
    assert len(right.hill) == right.hill_limit  # the hill shadow is full
    old_limit = right.hill_limit
    pair.both("set_capacity", 20 * CHUNK)
    assert physical_bytes(right) < physical
    assert right.capacity[SEG_HILL] > hill and right.hill_limit > old_limit
    assert len(right.hill) == old_limit


KEYS = st.integers(0, SCAN_KEYS + 11).map("k{}".format)
OPS = st.one_of(
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("insert"), KEYS),
    st.tuples(st.just("remove"), KEYS),
    st.tuples(st.just("set_capacity"), st.sampled_from([12, 24, 32, 40])),
    st.tuples(st.just("scan"), st.integers(1, 2)),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9), st.lists(OPS, max_size=120))
def test_request_path_matches_the_reference(warm_up_laps, ops):
    """Property: from an unsplit, a freshly split or a reverted queue
    (zero to nine warm-up laps), any sequence of GETs, SETs, DELETEs,
    resizes and further scans leaves both queues in the same state after
    every single call, with the same return codes and eviction counts."""
    pair = Pair()
    pair.scan(warm_up_laps)
    for op, argument in ops:
        if op == "get":
            pair.get(argument)
        elif op == "scan":
            pair.scan(argument)
        elif op == "set_capacity":
            pair.both(op, argument * CHUNK)
        else:
            pair.both(op, argument)
