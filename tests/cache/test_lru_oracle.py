"""``LRUPolicy`` against the ``KeyQueue``-backed LRU it replaced.

The policy owns its ordered dict and evicts inline; the oracle in
``reference_lru.py`` pushes through a :class:`KeyQueue` and drains its
overflow generator. Driven with the same operations, the two must agree
after every step on the MRU-to-LRU key order, the length, the exact
float ``used`` and every eviction list (victims, order and weights).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policies.lru import LRUPolicy
from repro.common.errors import CacheError
from tests.cache.reference_lru import KeyQueueLRU

#: Includes a zero weight and a fractional one, so ``used`` runs through
#: inexact float sums, and 7, which outweighs the smaller capacities.
WEIGHTS = (0, 1, 3, 7, 2.5)
CAPACITIES = (0, 1, 4, 6.5, 10, 20)

KEYS = st.integers(0, 7).map(lambda i: f"k{i}")
OPERATIONS = st.one_of(
    st.tuples(st.just("insert"), KEYS, st.sampled_from(WEIGHTS)),
    st.tuples(st.just("access"), KEYS),
    st.tuples(st.just("remove"), KEYS),
    st.tuples(st.just("resize"), st.sampled_from(CAPACITIES)),
)


def _same_state(policy, oracle):
    assert list(policy.keys()) == list(oracle.keys())
    assert len(policy) == len(oracle)
    assert policy.used.hex() == oracle.used.hex()
    assert policy.capacity == oracle.capacity


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.sampled_from(CAPACITIES),
    operations=st.lists(OPERATIONS, max_size=80),
)
def test_lru_matches_the_keyqueue_oracle(capacity, operations):
    policy, oracle = LRUPolicy(capacity), KeyQueueLRU(capacity)
    for name, *args in operations:
        got = getattr(policy, name)(*args)
        want = getattr(oracle, name)(*args)
        assert got == want, (name, args)
        if isinstance(want, list):
            assert [repr(w) for _, w in got] == [repr(w) for _, w in want]
        _same_state(policy, oracle)


def test_reinsert_heavier_than_capacity_evicts_itself():
    policy, oracle = LRUPolicy(6.5), KeyQueueLRU(6.5)
    for lru in (policy, oracle):
        lru.insert("a", 2.5)
        lru.insert("b", 3)
    assert policy.insert("a", 7) == oracle.insert("a", 7) == [
        ("b", 3), ("a", 7),
    ]
    _same_state(policy, oracle)
    assert len(policy) == 0 and policy.used == 0


def test_lru_rejects_negative_weight():
    policy = LRUPolicy(10)
    policy.insert("a", 1)
    with pytest.raises(CacheError):
        policy.insert("a", -1)
    assert list(policy.keys()) == ["a"] and policy.used == 1
