"""Tests for exact stack distances: the Fenwick profiler against the
naive oracle, and the Mattson inclusion property against a real LRU."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policies import make_policy
from repro.profiling.stack_distance import StackDistanceProfiler
from repro.workloads.zipf import ZipfSampler
from tests.profiling.reference import naive_stack_distances, record_all


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
        expected = naive_stack_distances(keys)
        profiler = StackDistanceProfiler()
        got = record_all(profiler, keys)
        for e, g in zip(expected, got):
            if e is None:
                assert g is None
            else:
                assert g == pytest.approx(e)

    def test_matches_naive_on_zipf_past_several_grows(self):
        """A 5k-request Zipf stream: over a thousand distinct keys and
        three doublings of the tree, still exactly the naive distances."""
        sampler = ZipfSampler(4000, 1.0, rng=np.random.default_rng(42))
        keys = [f"z{rank}" for rank in sampler.sample(5_000)]
        expected = naive_stack_distances(keys)
        got = record_all(StackDistanceProfiler(), keys)
        assert got == [None if d is None else float(d) for d in expected]
        assert max(d for d in expected if d is not None) > 1_000

    def test_grows_past_initial_capacity(self):
        profiler = StackDistanceProfiler()
        keys = [f"k{i % 7}" for i in range(5000)]
        record_all(profiler, keys)
        assert len(profiler._last) == 7
        # steady state distance of a 7-key round robin is 7
        assert profiler.distances[-1] == pytest.approx(7)

    def test_inclusion_property_vs_lru(self, rng):
        """Mattson: LRU of capacity C hits iff stack distance <= C."""
        keys = [f"k{rng.randrange(60)}" for _ in range(3000)]
        distances = record_all(StackDistanceProfiler(), keys)
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
        profiler = StackDistanceProfiler()
        profiler.record("a", weight=100)
        profiler.record("b", weight=50)
        distance = profiler.record("a", weight=100)
        # b's 50 bytes + a's own 100 bytes.
        assert distance == pytest.approx(150)

    def test_weighted_inclusion_vs_byte_lru(self, rng):
        """Byte distances predict byte-capacity LRU hits (stable sizes)."""
        sizes = {f"k{i}": 20 + (i * 13) % 90 for i in range(40)}
        keys = [f"k{rng.randrange(40)}" for _ in range(2500)]
        profiler = StackDistanceProfiler()
        distances = [profiler.record(k, weight=sizes[k]) for k in keys]
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
