"""Consistent-hash ring: determinism, balance, minimal key movement."""

import pytest

from repro.cluster import HashRing
from repro.common.errors import ConfigurationError
from tests.cluster.reference import shard_for, shards_for

KEYS = [f"app:z:{i}" for i in range(4000)]


def test_deterministic_across_instances():
    a = HashRing(4, seed=7)
    b = HashRing(4, seed=7)
    assert [shard_for(a, k) for k in KEYS] == [shard_for(b, k) for k in KEYS]


def test_seed_changes_the_partition():
    a = HashRing(4, seed=0)
    b = HashRing(4, seed=1)
    moved = sum(shard_for(a, k) != shard_for(b, k) for k in KEYS)
    assert moved > len(KEYS) / 2  # independent partitions


def test_single_shard_owns_everything():
    ring = HashRing(1)
    assert {shard_for(ring, k) for k in KEYS} == {0}


def test_distribution_roughly_balanced():
    ring = HashRing(4, seed=0)
    counts = [0] * 4
    for key in KEYS:
        counts[shard_for(ring, key)] += 1
    mean = len(KEYS) / 4
    for count in counts:
        assert 0.5 * mean < count < 1.5 * mean


def test_adding_a_shard_moves_few_keys():
    """The consistent-hashing property: growing N -> N+1 only moves the
    keys captured by the new shard's tokens (~1/(N+1) of the space)."""
    before = HashRing(4, seed=0)
    after = HashRing(5, seed=0)
    moved = [k for k in KEYS if shard_for(before, k) != shard_for(after, k)]
    # ~1/5 expected; allow generous slack, but far below a full reshuffle.
    assert len(moved) < 0.35 * len(KEYS)
    # Every moved key went *to* the new shard, never between old shards.
    assert {shard_for(after, k) for k in moved} == {4}


def test_replica_sets_are_distinct_and_primary_first():
    ring = HashRing(5, seed=3)
    for key in KEYS[:200]:
        replicas = shards_for(ring, key, 3)
        assert len(replicas) == len(set(replicas)) == 3
        assert replicas[0] == shard_for(ring, key)


def test_replica_count_clamped_to_shards():
    ring = HashRing(2, seed=0)
    assert sorted(shards_for(ring, "k", 10)) == [0, 1]


def test_bad_parameters_rejected():
    with pytest.raises(ConfigurationError):
        HashRing(0)
    with pytest.raises(ConfigurationError):
        HashRing(2, virtual_nodes=0)
    with pytest.raises(ConfigurationError):
        shards_for(HashRing(2), "k", 0)
