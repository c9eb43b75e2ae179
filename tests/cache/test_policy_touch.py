"""``touch`` promotes a resident key exactly as a hit ``access`` does.

A slab engine whose key map names a key's class knows the key is
resident in that class's queue, so it promotes it with
``EvictionPolicy.touch`` and tests nothing (under LRU, one C call). For
every registered policy, two twins take the same GET / SET / DELETE /
resize stream: one serves a GET of a resident key with ``touch`` and
skips a GET of an absent one, as the engine does; the other calls
``access`` every time, which must report a hit exactly when the key was
resident. After every step the twins must agree on the key order, the
exact float ``used``, the length and every victim list.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policies import POLICIES, make_policy

#: As in ``test_policy_store.py``.
WEIGHTS = (0, 1, 3, 7, 2.5)
CAPACITIES = (0, 1, 4, 6.5, 10, 20)

KEYS = st.integers(0, 7).map(lambda i: f"k{i}")
OPERATIONS = st.one_of(
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("set"), KEYS, st.sampled_from(WEIGHTS)),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("resize"), st.sampled_from(CAPACITIES)),
)


@pytest.mark.parametrize("kind", sorted(POLICIES))
@settings(max_examples=200, deadline=None)
@given(
    capacity=st.sampled_from(CAPACITIES),
    operations=st.lists(OPERATIONS, max_size=80),
)
def test_touch_is_a_hit_access(kind, capacity, operations):
    toucher, accessor = make_policy(kind, capacity), make_policy(kind, capacity)
    for name, *args in operations:
        if name == "get":
            (key,) = args
            resident = key in toucher
            if resident:
                toucher.touch(key)
            assert accessor.access(key) == resident, args
        elif name == "set":
            assert toucher.insert(*args) == accessor.insert(*args), args
        elif name == "delete":
            assert toucher.remove(*args) == accessor.remove(*args), args
        else:
            assert toucher.resize(*args) == accessor.resize(*args), args
        assert list(toucher.keys()) == list(accessor.keys()), (name, args)
        assert toucher.used.hex() == accessor.used.hex()
        assert len(toucher) == len(accessor)
