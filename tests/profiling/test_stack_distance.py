"""Tests for exact stack distances: ``stack_distances`` (a Fenwick tree
over access positions) against the naive oracle, unit and byte weighted,
and the Mattson inclusion property against a real LRU."""


import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.cache.policies import make_policy
from repro.profiling.stack_distance import stack_distances
from repro.workloads.zipf import ZipfSampler
from tests.profiling.reference import naive_stack_distances


class TestNaiveOracle:
    def test_cold_accesses_are_none(self):
        assert naive_stack_distances(["a", "b"]) == [None, None]

    def test_immediate_rereference_is_one(self):
        assert naive_stack_distances(["a", "a"]) == [None, 1]

    def test_textbook_sequence(self):
        # a b c b a: b has 1 distinct key since (c) -> rank 2;
        # a has b,c since -> rank 3.
        assert naive_stack_distances(list("abcba")) == [
            None, None, None, 2, 3,
        ]


class TestFenwickProfiler:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 30), max_size=400))
    def test_matches_naive(self, key_ids):
        keys = [f"k{i}" for i in key_ids]
        assert stack_distances(keys) == naive_stack_distances(keys)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 10_000)),
            max_size=300,
        )
    )
    # k1 is 50 bytes, then 70; k0's re-access sees k1's 70 and its own 30.
    @example([(0, 100), (1, 50), (1, 70), (0, 30)])
    def test_weighted_matches_naive(self, accesses):
        """Byte weights, including keys whose size changes between
        accesses: each key above is charged its latest size."""
        keys = [f"k{i}" for i, _ in accesses]
        weights = [weight for _, weight in accesses]
        assert stack_distances(keys, weights) == naive_stack_distances(
            keys, weights
        )

    def test_matches_naive_on_zipf_past_several_grows(self):
        """A 5k-request Zipf stream: over a thousand distinct keys,
        still exactly the naive distances."""
        sampler = ZipfSampler(4000, 1.0, rng=np.random.default_rng(42))
        keys = [f"z{rank}" for rank in sampler.sample(5_000)]
        expected = naive_stack_distances(keys)
        assert stack_distances(keys) == expected
        assert max(d for d in expected if d is not None) > 1_000

    def test_inclusion_property_vs_lru(self, rng):
        """Mattson: LRU of capacity C hits iff stack distance <= C."""
        keys = [f"k{rng.randrange(60)}" for _ in range(3000)]
        distances = stack_distances(keys)
        for capacity in (1, 5, 17, 40, 80):
            policy = make_policy("lru", capacity)
            hits = 0
            for key in keys:
                if policy.access(key):
                    hits += 1
                else:
                    policy.insert(key, 1)
            expected = sum(
                1 for d in distances if d is not None and d <= capacity
            )
            assert hits == expected, capacity

    def test_weighted_distances(self):
        """Byte-weighted mode: distance counts bytes of distinct keys."""
        distances = stack_distances(["a", "b", "a"], [100, 50, 100])
        # b's 50 bytes + a's own 100 bytes.
        assert distances == [None, None, 150.0]

    def test_weighted_inclusion_vs_byte_lru(self, rng):
        """Byte distances predict byte-capacity LRU hits (stable sizes)."""
        sizes = {f"k{i}": 20 + (i * 13) % 90 for i in range(40)}
        keys = [f"k{rng.randrange(40)}" for _ in range(2500)]
        distances = stack_distances(keys, [sizes[k] for k in keys])
        for capacity in (200, 800, 2000):
            policy = make_policy("lru", capacity)
            hits = 0
            for key in keys:
                if policy.access(key):
                    hits += 1
                else:
                    policy.insert(key, sizes[key])
            expected = sum(
                1 for d in distances if d is not None and d <= capacity
            )
            assert hits == expected, capacity
