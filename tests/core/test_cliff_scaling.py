"""Tests for the partitioned CliffhangerQueue (Algorithms 2 + 3)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policies import make_policy
from repro.core.cliff_scaling import (
    ACCESS_HILL_FIND,
    ACCESS_HIT,
    ACCESS_MISS,
    CliffConfig,
    CliffhangerQueue,
)
from repro.workloads.generators import ReuseDistanceStream
from repro.workloads.sizes import FixedSize

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
        left, right = queue.partition_sizes()
        assert left == 0.0
        assert right == pytest.approx(50 * CHUNK)

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
        left, right = queue.partition_sizes()
        assert left + right == pytest.approx(300 * CHUNK, rel=1e-6)

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
        assert queue.overhead_items() > 0

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
    queue.left.chain.check_invariants()
    queue.right.chain.check_invariants()
