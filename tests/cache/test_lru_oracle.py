"""Each eviction policy against the ``KeyQueue``-backed form it replaced.

The policies own their ordered dicts and evict inline; the oracles in
``reference_lru.py`` and ``reference_policies.py`` push through
``KeyQueue`` segments and drain their overflow generators. Driven with the
same operations, a policy and its oracle must agree after every step on
the MRU-to-LRU key order, the length, the exact float ``used``, every
eviction list (victims, order and weights) and, list by list, the
contents and byte totals of ARC's T1 / T2 / B1 / B2 (with its target
``p``) and of Facebook's protected and probationary segments.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policies import make_policy
from repro.cache.policies.lru import LRUPolicy
from repro.common.errors import CacheError
from tests.cache.keyqueue import KeyQueue
from tests.cache.reference_lru import KeyQueueLRU
from tests.cache.reference_policies import KeyQueueARC, KeyQueueFacebook

ORACLES = {"lru": KeyQueueLRU, "facebook": KeyQueueFacebook, "arc": KeyQueueARC}

#: The lists each policy keeps, by attribute name (LRU has one, read
#: through ``keys()`` and ``used``).
LISTS = {
    "lru": (),
    "facebook": ("_protected", "_probation"),
    "arc": ("_t1", "_t2", "_b1", "_b2"),
}

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


def _lists(policy):
    """Each of the policy's lists as ``[(key, weight)]``, MRU first, with
    its byte total in hex."""
    lists = []
    for name in LISTS[policy.kind]:
        entries = getattr(policy, name)
        if isinstance(entries, KeyQueue):
            pairs = [
                (key, entries.weight_of(key)) for key in entries.keys_mru_to_lru()
            ]
            used = entries.used
        else:
            pairs, used = list(entries.items()), getattr(policy, f"{name}_used")
        lists.append(([(key, repr(weight)) for key, weight in pairs], used.hex()))
    return lists


def _same_state(policy, oracle):
    assert list(policy.keys()) == list(oracle.keys())
    assert len(policy) == len(oracle)
    assert policy.used.hex() == oracle.used.hex()
    assert policy.capacity == oracle.capacity
    assert _lists(policy) == _lists(oracle)
    assert repr(getattr(policy, "p", None)) == repr(getattr(oracle, "p", None))


@pytest.mark.parametrize("kind", sorted(ORACLES))
@settings(max_examples=300, deadline=None)
@given(
    capacity=st.sampled_from(CAPACITIES),
    operations=st.lists(OPERATIONS, max_size=80),
)
def test_policy_matches_the_keyqueue_oracle(kind, capacity, operations):
    policy, oracle = make_policy(kind, capacity), ORACLES[kind](capacity)
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
