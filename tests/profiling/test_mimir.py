"""Tests for the Mimir bucket estimator."""

from collections import deque

import pytest

from repro.common.errors import ConfigurationError
from repro.profiling.mimir import mimir_distances
from repro.profiling.stack_distance import stack_distances
from repro.workloads.zipf import ZipfSampler


class ReferenceMimir:
    """The estimator with its prefix sum written out in Python: every
    access re-sums the newer buckets' ``len`` one index at a time."""

    def __init__(self, num_buckets=100):
        self.num_buckets = num_buckets
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
        # The window never rotates below 8 keys in the newest bucket.
        target = max(8, len(self._round_of) // self.num_buckets)
        if len(self._buckets[0]) >= target:
            self._buckets.appendleft(set())
            self._head_round += 1
            if len(self._buckets) > self.num_buckets:
                oldest = self._buckets.pop()
                self._buckets[-1] |= oldest
        return estimate


class TestMimirBasics:
    def test_cold_access_is_none(self):
        assert mimir_distances(["a"]) == [None]

    def test_rereference_estimates_positive(self):
        estimate = mimir_distances(["a", "b", "a"])[-1]
        assert estimate is not None and estimate > 0

    def test_needs_two_buckets(self):
        with pytest.raises(ConfigurationError):
            mimir_distances(["a"], num_buckets=1)


class TestMimirAccuracy:
    def test_rough_agreement_with_exact(self, rng):
        """The bucket estimate should land in the right ballpark: mean
        relative error bounded, ordering preserved on average. (The
        paper relies on it being *imperfect*, so the bound is loose.)"""
        keys = [f"k{rng.randrange(200)}" for _ in range(20000)]
        exact = stack_distances(keys)
        estimated = mimir_distances(keys, num_buckets=100)
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
        coarse = mimir_distances(keys, num_buckets=4)
        fine = mimir_distances(keys, num_buckets=100)
        distinct_coarse = len({d for d in coarse if d is not None})
        distinct_fine = len({d for d in fine if d is not None})
        assert distinct_fine >= distinct_coarse


def test_prefix_sum_matches_resumming_the_buckets():
    """On a 50k-request Zipf stream every estimate is bit-identical to
    re-summing the buckets one by one."""
    keys = ZipfSampler(20_000, 0.9, seed=1).sample(50_000).tolist()
    reference = ReferenceMimir()
    assert mimir_distances(keys) == [reference.record(key) for key in keys]
