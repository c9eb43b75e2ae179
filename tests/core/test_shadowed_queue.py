"""Tests for ShadowedQueue: the physical-policy + key-only-shadow unit."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policies import POLICIES, make_policy
from repro.core.cliff_scaling import ACCESS_HILL_FIND, ACCESS_HIT, ACCESS_MISS
from repro.core.managed import ShadowedQueue
from tests.cache.reference_policies import KeyQueueShadowed
from tests.cache.test_lru_oracle import CAPACITIES, KEYS, WEIGHTS


def make(capacity=10, shadow=10, policy="lru"):
    return ShadowedQueue(
        make_policy(policy, capacity, name="t"),
        shadow_bytes=shadow,
        name="t",
    )


class TestShadowedQueue:
    def test_hit_miss_shadow_lifecycle(self):
        queue = make(capacity=2, shadow=10)
        queue.insert("a", 1)
        queue.insert("b", 1)
        queue.insert("c", 1)  # evicts a into the shadow
        assert queue.access("c") == ACCESS_HIT
        assert queue.access("a") == ACCESS_HILL_FIND
        assert queue.access("zz") == ACCESS_MISS

    def test_shadow_hit_removes_from_shadow(self):
        queue = make(capacity=1, shadow=10)
        queue.insert("a", 1)
        queue.insert("b", 1)
        assert queue.access("a") == ACCESS_HILL_FIND
        # Second probe without a refill is a full miss.
        assert queue.access("a") == ACCESS_MISS

    def test_shadow_counts_hits(self):
        queue = make(capacity=1, shadow=10)
        queue.insert("a", 1)
        queue.insert("b", 1)
        queue.access("a")
        assert queue.shadow_hits == 1

    def test_shadow_capacity_is_represented_bytes(self):
        queue = make(capacity=1, shadow=3)
        for key in "abcdef":
            queue.insert(key, 1)
        # shadow holds at most 3 represented bytes = 3 unit items
        assert len(queue.shadow) <= 3

    def test_shrink_moves_items_into_shadow(self):
        queue = make(capacity=4, shadow=10)
        for key in "abcd":
            queue.insert(key, 1)
        evicted = queue.set_capacity(2)
        assert evicted == 2
        assert queue.used_bytes <= 2
        # The evicted keys are shadow-visible.
        assert queue.access("a") == ACCESS_HILL_FIND

    def test_no_double_residency(self):
        queue = make(capacity=2, shadow=10)
        queue.insert("a", 1)
        queue.insert("b", 1)
        queue.insert("c", 1)  # a -> shadow
        queue.insert("a", 1)  # refill
        assert "a" not in queue.shadow
        assert queue.access("a") == ACCESS_HIT

    def test_remove_clears_everywhere(self):
        queue = make(capacity=1, shadow=10)
        queue.insert("a", 1)
        queue.insert("b", 1)  # a in shadow
        assert queue.remove("a") is False  # a shadow never claims residency
        assert "a" not in queue.shadow
        assert queue.access("a") == ACCESS_MISS

    @pytest.mark.parametrize("policy", ["lru", "arc", "facebook"])
    def test_any_policy_supported(self, policy):
        queue = make(capacity=3, shadow=10, policy=policy)
        for key in "abcde":
            queue.insert(key, 1)
        results = {queue.access(key) for key in "abcde"}
        assert ACCESS_HIT in results


SHADOW_OPERATIONS = st.one_of(
    st.tuples(st.just("get"), KEYS, st.sampled_from(WEIGHTS)),
    st.tuples(st.just("insert"), KEYS, st.sampled_from(WEIGHTS)),
    st.tuples(st.just("remove"), KEYS),
    st.tuples(st.just("set_capacity"), st.sampled_from(CAPACITIES)),
)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=200, deadline=None)
@given(
    capacity=st.sampled_from(CAPACITIES),
    shadow_bytes=st.sampled_from(CAPACITIES),
    operations=st.lists(SHADOW_OPERATIONS, max_size=80),
)
def test_shadow_matches_the_keyqueue_oracle(
    policy, capacity, shadow_bytes, operations
):
    """The ``LRUPolicy`` shadow against the ``KeyQueue`` one it replaced,
    which drained once per eviction batch: the same return values, the
    same shadow keys in the same order and the exact float bytes after
    every step. A GET that is not a hit fills, as the engine does."""
    queue, oracle = (
        cls(make_policy(policy, capacity), shadow_bytes=shadow_bytes)
        for cls in (ShadowedQueue, KeyQueueShadowed)
    )
    for name, *args in operations:
        if name == "get":
            key, weight = args
            got = queue.access(key)
            assert got == oracle.access(key), (name, args)
            if got != ACCESS_HIT:
                assert queue.fill(key, weight) == oracle.fill(key, weight)
        else:
            got = getattr(queue, name)(*args)
            assert got == getattr(oracle, name)(*args), (name, args)
        assert list(queue.shadow.keys()) == list(oracle.shadow.keys_mru_to_lru())
        assert queue.shadow.used.hex() == oracle.shadow.used.hex()
        assert queue.shadow_hits == oracle.shadow_hits
        assert list(queue.policy.keys()) == list(oracle.policy.keys())
        assert queue.used_bytes.hex() == oracle.used_bytes.hex()
