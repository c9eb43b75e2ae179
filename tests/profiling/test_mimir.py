"""Tests for the Mimir bucket estimator."""

from collections import deque

import pytest

from repro.common.errors import ConfigurationError
from repro.profiling.mimir import MimirProfiler
from repro.profiling.stack_distance import StackDistanceProfiler
from repro.workloads.zipf import ZipfSampler


class ReferenceMimir:
    """The estimator with its prefix sum written out in Python: every
    access re-sums the newer buckets' ``len`` one index at a time."""

    def __init__(self, num_buckets=100, min_rotation=8, max_tracked=None):
        self.num_buckets = num_buckets
        self.min_rotation = min_rotation
        self.max_tracked = max_tracked
        self._buckets = deque([set()])
        self._round_of = {}
        self._head_round = 0

    def record(self, key):
        round_id = self._round_of.get(key)
        if round_id is None:
            estimate = None
        else:
            index = min(self._head_round - round_id, len(self._buckets) - 1)
            newer = sum(len(self._buckets[j]) for j in range(index))
            estimate = newer + len(self._buckets[index]) / 2.0
            self._buckets[index].discard(key)
        self._buckets[0].add(key)
        self._round_of[key] = self._head_round
        target = max(self.min_rotation, len(self._round_of) // self.num_buckets)
        if len(self._buckets[0]) >= target:
            self._buckets.appendleft(set())
            self._head_round += 1
            if len(self._buckets) > self.num_buckets:
                oldest = self._buckets.pop()
                self._buckets[-1] |= oldest
        while self.max_tracked is not None and len(self._round_of) > self.max_tracked:
            for bucket in reversed(self._buckets):
                if bucket:
                    key = next(iter(bucket))
                    bucket.discard(key)
                    del self._round_of[key]
                    break
        return estimate


class TestMimirBasics:
    def test_cold_access_is_none(self):
        profiler = MimirProfiler()
        assert profiler.record("a") is None

    def test_rereference_estimates_positive(self):
        profiler = MimirProfiler()
        profiler.record("a")
        profiler.record("b")
        estimate = profiler.record("a")
        assert estimate is not None and estimate > 0

    def test_needs_two_buckets(self):
        with pytest.raises(ConfigurationError):
            MimirProfiler(num_buckets=1)

    def test_max_tracked_bound(self):
        profiler = MimirProfiler(max_tracked=50)
        for i in range(500):
            profiler.record(f"k{i}")
        assert profiler.tracked <= 50

    def test_forgotten_key_looks_cold(self):
        profiler = MimirProfiler(max_tracked=10)
        profiler.record("victim")
        for i in range(100):
            profiler.record(f"filler{i}")
        assert profiler.record("victim") is None


class TestMimirAccuracy:
    def test_rough_agreement_with_exact(self, rng):
        """The bucket estimate should land in the right ballpark: mean
        relative error bounded, ordering preserved on average. (The
        paper relies on it being *imperfect*, so the bound is loose.)"""
        keys = [f"k{rng.randrange(200)}" for _ in range(20000)]
        exact = StackDistanceProfiler().record_all(keys)
        estimated = MimirProfiler(num_buckets=100).record_all(keys)
        pairs = [
            (e, m)
            for e, m in zip(exact, estimated)
            if e is not None and m is not None and e > 20
        ]
        assert pairs, "stream produced no warm re-references"
        ratio = sum(m / e for e, m in pairs) / len(pairs)
        assert 0.4 < ratio < 2.5

    def test_estimates_monotone_in_buckets(self, rng):
        """More buckets -> finer resolution: estimates take more
        distinct values."""
        keys = [f"k{rng.randrange(100)}" for _ in range(5000)]
        coarse = MimirProfiler(num_buckets=4).record_all(keys)
        fine = MimirProfiler(num_buckets=100).record_all(keys)
        distinct_coarse = len({d for d in coarse if d is not None})
        distinct_fine = len({d for d in fine if d is not None})
        assert distinct_fine >= distinct_coarse


@pytest.mark.parametrize("max_tracked", [None, 3000])
def test_prefix_sum_matches_resumming_the_buckets(max_tracked):
    """On a 50k-request Zipf stream, with and without trimming, every
    estimate is bit-identical to re-summing the buckets one by one."""
    keys = ZipfSampler(20_000, 0.9, seed=1).sample(50_000).tolist()
    profiler = MimirProfiler(max_tracked=max_tracked)
    reference = ReferenceMimir(max_tracked=max_tracked)
    assert profiler.record_all(keys) == [reference.record(key) for key in keys]
