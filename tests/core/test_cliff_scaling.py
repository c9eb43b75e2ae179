"""Tests for the partitioned CliffhangerQueue (Algorithms 2 + 3)."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from tests.cache.keyqueue import KeyQueue
from repro.cache.policies import make_policy
from repro.core.cliff_scaling import (
    ACCESS_HILL_FIND,
    ACCESS_HIT,
    ACCESS_MISS,
    SEG_MAIN,
    SEG_TAIL,
    CliffConfig,
    CliffhangerQueue,
    _Partition,
    chunk_limit,
)
from repro.workloads.generators import ReuseDistanceStream
from repro.workloads.sizes import FixedSize
from tests.core.reference_write import push

CHUNK = 256


def config(**overrides):
    defaults = dict(
        chunk_size=CHUNK,
        probe_items=16,
        credit_bytes=8 * CHUNK,
        min_queue_items_for_cliff=100,
        hill_shadow_bytes=64 * CHUNK,
    )
    defaults.update(overrides)
    return CliffConfig(**defaults)


def physical_bytes(partition) -> float:
    """A partition's physical region: main plus the tail probe."""
    return partition.capacity[SEG_MAIN] + partition.capacity[SEG_TAIL]


def replay(queue, keys):
    hits = 0
    for key in keys:
        if queue.access(key) == ACCESS_HIT:
            hits += 1
        else:
            queue.insert(key)
    return hits / max(1, len(keys))


def lru_replay(capacity_bytes, keys):
    policy = make_policy("lru", capacity_bytes)
    hits = 0
    for key in keys:
        if policy.access(key):
            hits += 1
        else:
            policy.insert(key, CHUNK)
    return hits / max(1, len(keys))


def sigmoid_keys(n=120_000, mean=400, sigma=80, seed=1):
    stream = ReuseDistanceStream(
        "t", mean, sigma, FixedSize(100), refs_per_key=9, seed=seed
    )
    return [r.key for r in stream.generate(n, 1000.0)]


def zipf_keys_local(rng, num_keys, count, alpha=1.0):
    from tests.conftest import zipf_keys

    return zipf_keys(rng, num_keys, count, alpha)


class TestBasics:
    def test_miss_then_hit(self):
        queue = CliffhangerQueue("q", 50 * CHUNK, config())
        assert queue.access("a") == ACCESS_MISS
        queue.insert("a")
        assert queue.access("a") == ACCESS_HIT

    def test_capacity_accounting(self):
        queue = CliffhangerQueue("q", 10 * CHUNK, config())
        for i in range(30):
            queue.insert(f"k{i}")
        assert queue.used_bytes <= queue.capacity_bytes + 1e-9
        assert len(queue.right.main) + len(queue.right.tail) == 10

    def test_gated_small_queue_is_unsplit(self):
        queue = CliffhangerQueue(
            "q", 50 * CHUNK, config(min_queue_items_for_cliff=1000)
        )
        assert queue.cliff_active is False
        assert physical_bytes(queue.left) == 0.0
        assert physical_bytes(queue.right) == pytest.approx(50 * CHUNK)

    def test_disabled_cliff_scaling_never_splits(self):
        queue = CliffhangerQueue(
            "q", 400 * CHUNK, config(), enable_cliff_scaling=False
        )
        replay(queue, sigmoid_keys(n=30000))
        assert queue._split is False

    def test_remove(self):
        queue = CliffhangerQueue("q", 50 * CHUNK, config())
        queue.insert("a")
        assert queue.remove("a") is True
        assert queue.access("a") == ACCESS_MISS


class TestEquivalenceWithLRU:
    def test_gated_queue_matches_lru_exactly(self, rng):
        """Below the size gate the queue is a plain LRU."""
        keys = zipf_keys_local(rng, 80, 5000)
        queue = CliffhangerQueue(
            "q", 40 * CHUNK, config(min_queue_items_for_cliff=10**6)
        )
        assert replay(queue, keys) == pytest.approx(
            lru_replay(40 * CHUNK, keys)
        )

    def test_concave_workload_stays_unsplit_and_lossless(self, rng):
        """On a concave (zipf) curve the right pointer stays pinned, the
        queue never splits and the hit rate matches plain LRU."""
        keys = zipf_keys_local(rng, 300, 40000, alpha=0.9)
        queue = CliffhangerQueue("q", 150 * CHUNK, config())
        cliffhanger_rate = replay(queue, keys)
        lru_rate = lru_replay(150 * CHUNK, keys)
        # Transient diffusion splits are allowed (the self-evaluation
        # reverts them); what matters is the hit rate does not regress.
        assert cliffhanger_rate >= lru_rate - 0.02


class TestCliffScaling:
    def test_beats_lru_inside_a_cliff(self):
        keys = sigmoid_keys()
        capacity = 300 * CHUNK  # inside the [~240, ~560] ramp
        stuck = lru_replay(capacity, keys)
        queue = CliffhangerQueue("q", capacity, config())
        scaled = replay(queue, keys)
        assert scaled > stuck + 0.05
        assert queue.splits >= 1

    def test_no_loss_above_the_cliff(self):
        keys = sigmoid_keys()
        capacity = 460 * CHUNK  # past the ramp top
        covered = lru_replay(capacity, keys)
        queue = CliffhangerQueue("q", capacity, config())
        assert replay(queue, keys) >= covered - 0.02

    def test_pointers_bracket_the_operating_point(self):
        keys = sigmoid_keys(n=60000)
        queue = CliffhangerQueue("q", 300 * CHUNK, config())
        replay(queue, keys)
        assert queue.left_pointer <= queue.capacity_bytes + 1e-9
        assert queue.right_pointer >= queue.capacity_bytes - 1e-9

    def test_partition_sizes_sum_to_capacity(self):
        keys = sigmoid_keys(n=60000)
        queue = CliffhangerQueue(
            "q", 300 * CHUNK, config(resize_on_miss=False)
        )
        replay(queue, keys)
        total = physical_bytes(queue.left) + physical_bytes(queue.right)
        assert total == pytest.approx(300 * CHUNK, rel=1e-6)

    def test_resize_on_miss_defers_repartition(self):
        queue = CliffhangerQueue("q", 300 * CHUNK, config())
        # Force a pointer event state then check the pending flag clears
        # only via insert (the miss path).
        queue.right_pointer = queue.capacity_bytes + 100 * CHUNK
        queue._update_split_state()
        queue._recompute_ratio()
        assert queue._pending_resize is True
        queue.insert("new-key")
        assert queue._pending_resize is False


class TestHillClimbIntegration:
    def test_set_capacity_shrink_and_grow(self):
        queue = CliffhangerQueue("q", 100 * CHUNK, config())
        for i in range(100):
            queue.insert(f"k{i}")
        queue.set_capacity(50 * CHUNK)
        assert queue.used_bytes <= 50 * CHUNK + 1e-9
        queue.set_capacity(200 * CHUNK)
        assert queue.capacity_bytes == 200 * CHUNK

    def test_shadow_keys_counted_in_overhead(self):
        queue = CliffhangerQueue("q", 10 * CHUNK, config())
        for i in range(200):
            queue.insert(f"k{i}")
        assert any(
            partition.cliff or partition.hill
            for partition in (queue.left, queue.right)
        )

    def test_hill_shadow_reports_demand_beyond_capacity(self):
        queue = CliffhangerQueue("q", 5 * CHUNK, config())
        for i in range(30):
            queue.insert(f"k{i}")
        # Keys evicted long ago sit in the hill shadow (deeper than the
        # tail and cliff probes): a find there is a miss that reports
        # the hill shadow.
        assert queue.access("k2") == ACCESS_HILL_FIND


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_budget_invariant_under_random_traffic(seed):
    """Property: whatever the traffic, physical usage never exceeds
    capacity and the partitions never exceed their targets."""
    rng = random.Random(seed)
    queue = CliffhangerQueue("q", 60 * CHUNK, config())
    for step in range(800):
        key = f"k{rng.randrange(120)}"
        if queue.access(key) != ACCESS_HIT:
            queue.insert(key)
        if step % 100 == 7:
            queue.set_capacity(rng.choice([40, 60, 90]) * CHUNK)
        assert queue.used_bytes <= queue.capacity_bytes + 1e-6
    queue.left.check_invariants()
    queue.right.check_invariants()


# A capacity just below ``K * BIG_CHUNK`` bytes whose float quotient by
# the chunk rounds up to ``K`` itself.
BIG_CHUNK = 1_513_181
K = 175_042_368_964
BELOW_K_CHUNKS = math.nextafter(float(K * BIG_CHUNK), 0)


@st.composite
def capacities(draw):
    """``(chunk, capacity)``: fractional capacities up to 2**62 bytes, 0,
    and the float right below a whole number of chunks."""
    chunk = draw(st.integers(1, 2**21))
    kind = draw(st.sampled_from(["fractional", "zero", "below"]))
    if kind == "fractional":
        capacity = draw(st.floats(0, 2.0**62))
    elif kind == "zero":
        capacity = 0.0
    else:
        whole = draw(st.integers(0, 2**62 // chunk))
        capacity = math.nextafter(float(whole * chunk), 0)
    return chunk, capacity


@example((BIG_CHUNK, BELOW_K_CHUNKS))
@example((64, 127.5))
@settings(max_examples=300, deadline=None)
@given(capacities())
def test_chunk_limit_is_the_most_whole_chunks_that_fit(case):
    """Property: ``n * chunk <= capacity < (n + 1) * chunk``, compared
    exactly (Python compares ints and floats without rounding)."""
    chunk, capacity = case
    n = chunk_limit(capacity, chunk)
    assert n * chunk <= capacity < (n + 1) * chunk


def test_chunk_limit_where_float_division_rounds_up():
    """The case ``int(capacity / chunk)`` gets wrong by one."""
    assert BELOW_K_CHUNKS / BIG_CHUNK == K
    assert chunk_limit(BELOW_K_CHUNKS, BIG_CHUNK) == K - 1


def partition(main_items, probe_items, hill_items, spare=0.0):
    """A ``_Partition`` with ``main_items + probe_items`` physical items (the
    tail probe ``probe_items`` wide) and ``hill_items`` of hill shadow;
    ``spare`` adds a fraction of a chunk to both byte capacities."""
    part = _Partition(config(probe_items=probe_items))
    part.set_physical((main_items + probe_items + spare) * CHUNK)
    part.set_hill((hill_items + spare) * CHUNK)
    return part


def touch(part, key):
    """A GET with promote-to-MRU on any find, as one LRU list would do:
    the segment ``key`` was in (None on a miss)."""
    segment = part.discard(key)
    push(part, key)
    return segment


class TestPartition:
    def test_partition_equals_single_lru(self, rng):
        """The four segments, promoting every find to the front of main,
        hit exactly like one LRU of the summed size, and the segment a
        key is found in is its rank band in that LRU."""
        part = partition(main_items=10, probe_items=5, hill_items=15)
        single = KeyQueue(35 * CHUNK, name="single")
        bands = [10, 15, 20, 35]  # main | tail | cliff | hill
        for step in range(4000):
            key = f"k{rng.randrange(60)}"
            order = list(single.keys_mru_to_lru())
            expected = None
            if key in single:
                rank = order.index(key)
                expected = next(i for i, end in enumerate(bands) if rank < end)
            assert touch(part, key) == expected, step
            single.push_front(key, CHUNK)
            for _ in single.overflow():
                pass
        part.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 25), st.booleans()),
            min_size=1,
            max_size=300,
        ),
        st.tuples(
            st.integers(0, 8), st.integers(1, 8), st.integers(0, 8),
            st.sampled_from([0.0, 0.25, 0.999]),
        ),
    )
    def test_invariants_under_random_ops(self, ops, sizes):
        """Property: any mix of finds and deletes leaves the partition
        self-consistent, for any (fractional) segment sizes."""
        part = partition(*sizes)
        for key_id, is_remove in ops:
            key = f"k{key_id}"
            if is_remove:
                part.discard(key)
            else:
                touch(part, key)
            part.check_invariants()

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.integers(0, 25)),
                st.tuples(st.just("delete"), st.integers(0, 25)),
                st.tuples(
                    st.just("physical"),
                    st.floats(0, 14, allow_nan=False),
                ),
                st.tuples(
                    st.just("hill"), st.floats(0, 8, allow_nan=False)
                ),
            ),
            min_size=1,
            max_size=200,
        ),
    )
    def test_cascade_reports_what_left_physical_memory(self, ops):
        """Property: the count ``push`` / ``set_physical`` return is the
        drop in ``physical_len()`` (less the key pushed, when it was not
        physical already)."""
        part = partition(main_items=4, probe_items=2, hill_items=5)
        for op, argument in ops:
            before = part.physical_len()
            if op == "insert":
                key = f"k{argument}"
                physical = part.discard(key) in (SEG_MAIN, SEG_TAIL)
                crossed = push(part, key)
                added = 0 if physical else 1
                assert crossed == before + added - part.physical_len()
            elif op == "physical":
                crossed = part.set_physical(argument * CHUNK)
                assert crossed == before - part.physical_len()
            elif op == "hill":
                part.set_hill(argument * CHUNK)
                assert part.physical_len() == before
            else:
                part.discard(f"k{argument}")
            part.check_invariants()

    def test_resize_that_shrinks_no_limit_moves_nothing(self):
        """A resize that leaves the main and tail limits where they are
        (a fraction of a chunk either way), or only raises them, returns
        0 and leaves every key where it was; the capacities move."""
        part = partition(main_items=4, probe_items=2, hill_items=5)
        for index in range(16):
            push(part, f"k{index}")
        keys = [keys for _, keys in part.segments()]
        assert [len(segment) for segment in keys] == [4, 2, 2, 5]
        for physical in (6.5, 6.999, 6.0, 9.0):
            assert part.set_physical(physical * CHUNK) == 0
            assert [keys for _, keys in part.segments()] == keys
            assert physical_bytes(part) == physical * CHUNK
            part.check_invariants()

    def test_resize_that_shrinks_only_the_tail_still_cascades(self):
        """Below one probe width main stays empty and only the tail
        limit changes: the tail's LRU key still moves down."""
        part = partition(main_items=0, probe_items=4, hill_items=5)
        for index in range(8):
            push(part, f"k{index}")
        assert part.main_limit == 0 and list(part.tail) == [
            "k4", "k5", "k6", "k7",
        ]
        assert part.set_physical(3 * CHUNK) == 1
        assert part.main_limit == 0
        assert list(part.tail) == ["k5", "k6", "k7"]
        assert next(reversed(part.cliff)) == "k4"
        part.check_invariants()
