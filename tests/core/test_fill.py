"""Differential tests: a GET-miss ``fill`` against an ``insert``.

``ClimbingEngine`` stores a key its ``access`` just left non-resident
with the queue's ``fill``, which skips the search and purge ``insert``
makes. Two twins of each queue type run the same random GETs, SETs,
DELETEs and resizes; after a non-hit GET one fills and the other
inserts, and they must return the same counts and end every step in
the same state.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policies import make_policy
from repro.core.cliff_scaling import ACCESS_HIT, CliffhangerQueue
from repro.core.managed import ShadowedQueue
from tests.core.test_reference_parity import CHUNK, CONFIG, ITEMS, SCAN_KEYS


def cliffhanger():
    return CliffhangerQueue("q", ITEMS * CHUNK, CONFIG)


def cliff_state(queue):
    """Every field, and each partition's segments (checked first)."""
    queue.check_invariants()
    fields = {
        name: value
        for name, value in vars(queue).items()
        if name not in ("left", "right")
    }
    return fields, queue.left.segments(), queue.right.segments()


def shadowed(policy):
    return lambda: ShadowedQueue(
        make_policy(policy, 16, name="q"), shadow_bytes=8, name="q"
    )


def shadowed_state(queue):
    """Policy order (with each key's Facebook segment), bytes used, the
    shadow's order and its hit count."""
    policy, shadow = queue.policy, queue.shadow
    assert policy.used <= policy.capacity
    assert not any(key in shadow for key in policy.keys())
    protected = getattr(policy, "in_protected", lambda key: False)
    return (
        [(key, protected(key)) for key in policy.keys()],
        policy.used,
        list(shadow.keys()),
        shadow.used,
        queue.shadow_hits,
    )


class Twins:
    """Two queues driven in lockstep; GET misses ``fill`` one and
    ``insert`` the other."""

    def __init__(self, make, state) -> None:
        self.filled, self.inserted = make(), make()
        self.state = state

    def both(self, method: str, *args):
        result = getattr(self.filled, method)(*args)
        assert result == getattr(self.inserted, method)(*args), (method, args)
        assert self.state(self.filled) == self.state(self.inserted), method
        return result

    def get(self, key, weight) -> None:
        if self.both("access", key) != ACCESS_HIT:
            evicted = self.filled.fill(key, weight)
            assert evicted == self.inserted.insert(key, weight), key
            assert self.state(self.filled) == self.state(self.inserted), key


CLIFF_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["get", "set", "delete"]),
                  st.integers(0, SCAN_KEYS + 11)),
        st.tuples(st.just("resize"), st.sampled_from([12, 24, 32, 40])),
        st.tuples(st.just("scan"), st.integers(1, 2)),
    ),
    max_size=120,
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9), CLIFF_OPS)
def test_cliffhanger_fill_matches_insert(warm_up_laps, ops):
    """Property: from an unsplit, split or reverted queue (the warm-up
    scans of ``test_reference_parity``), filling after a non-hit GET
    leaves every field and segment as inserting would."""
    twins = Twins(cliffhanger, cliff_state)

    def scan(laps):
        for _ in range(laps):
            for index in range(SCAN_KEYS):
                twins.get(f"k{index}", CHUNK)

    scan(warm_up_laps)
    for op, argument in ops:
        if op == "get":
            twins.get(f"k{argument}", CHUNK)
        elif op == "set":
            twins.both("insert", f"k{argument}", CHUNK)
        elif op == "delete":
            twins.both("remove", f"k{argument}")
        elif op == "resize":
            twins.both("set_capacity", argument * CHUNK)
        else:
            scan(argument)


SHADOWED_OPS = st.lists(
    st.tuples(
        st.sampled_from(["get", "get", "set", "delete", "resize"]),
        st.integers(0, 23),
        st.integers(1, 5),
    ),
    max_size=150,
)


@pytest.mark.parametrize("policy", ["facebook", "lru"])
@settings(max_examples=60, deadline=None)
@given(ops=SHADOWED_OPS)
def test_shadowed_fill_matches_insert(policy, ops):
    """Property: ``ShadowedQueue.fill`` after a non-hit GET, which has
    already taken the key out of the shadow, stores as ``insert``."""
    twins = Twins(shadowed(policy), shadowed_state)
    for op, index, size in ops:
        key = f"k{index}"
        if op == "get":
            twins.get(key, size)
        elif op == "set":
            twins.both("insert", key, size)
        elif op == "delete":
            twins.both("remove", key)
        else:
            twins.both("set_capacity", 4 * size)
