"""``EvictionPolicy.store`` against ``insert`` plus popping its victims.

A slab engine records a key in its key -> class map, then stores it
through :meth:`~repro.cache.policies.base.EvictionPolicy.store`, which
deletes every victim from that map itself (the key it just stored
included) and returns only the count. For every registered policy, a
twin that calls ``insert`` and pops the returned victims must agree with
it after every step: the return value, the map, the key order, the exact
float ``used`` and the capacity.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policies import POLICIES, make_policy

#: As in ``test_lru_oracle.py``: a zero weight, a fractional one, and 7,
#: which outweighs the smaller capacities; 1 + 3 fills a capacity of 4
#: exactly.
WEIGHTS = (0, 1, 3, 7, 2.5)
CAPACITIES = (0, 1, 4, 6.5, 10, 20)

KEYS = st.integers(0, 7).map(lambda i: f"k{i}")
OPERATIONS = st.one_of(
    st.tuples(st.just("store"), KEYS, st.sampled_from(WEIGHTS)),
    st.tuples(st.just("access"), KEYS),
    st.tuples(st.just("remove"), KEYS),
    st.tuples(st.just("resize"), st.sampled_from(CAPACITIES)),
)


def _forget(resident, evicted):
    for victim, _ in evicted:
        del resident[victim]


@pytest.mark.parametrize("kind", sorted(POLICIES))
@settings(max_examples=200, deadline=None)
@given(
    capacity=st.sampled_from(CAPACITIES),
    operations=st.lists(OPERATIONS, max_size=60),
)
def test_store_is_insert_then_forget(kind, capacity, operations):
    policy, twin = make_policy(kind, capacity), make_policy(kind, capacity)
    resident, twin_resident = {}, {}
    for step, (name, *args) in enumerate(operations):
        if name == "store":
            key, weight = args
            resident[key] = twin_resident[key] = step
            got = policy.store(key, weight, resident)
            evicted = twin.insert(key, weight)
            _forget(twin_resident, evicted)
            assert got == len(evicted), (name, args)
        elif name == "resize":
            _forget(resident, policy.resize(*args))
            _forget(twin_resident, twin.resize(*args))
        else:
            assert getattr(policy, name)(*args) == getattr(twin, name)(*args)
            if name == "remove":
                resident.pop(args[0], None)
                twin_resident.pop(args[0], None)
        assert resident == twin_resident, (name, args)
        assert list(resident) == list(twin_resident)
        assert sorted(resident) == sorted(policy.keys())
        assert list(policy.keys()) == list(twin.keys())
        assert policy.used.hex() == twin.used.hex()
        assert policy.capacity == twin.capacity
