"""The queue protocol :class:`repro.core.engine.ClimbingEngine` relies on.

:class:`ShadowedQueue` (over every eviction policy) and
:class:`CliffhangerQueue` must answer ``access`` / ``insert`` /
``set_capacity`` / ``remove`` the same way, because the engine's request
path is written once against those answers: eviction counts come straight
from the return values, and only a *physical* hit or delete may set the
hit bit.

The Cliffhanger queue runs below its size gate here, so it never has a
repartition pending; what its ``insert`` reports once it splits is pinned
against the naive reference in ``test_reference_parity.py``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policies import POLICIES, make_policy
from repro.core.cliff_scaling import (
    ACCESS_CLIFF_FIND,
    ACCESS_HILL_FIND,
    ACCESS_HIT,
    ACCESS_MISS,
    SEG_TAIL,
    CliffConfig,
    CliffhangerQueue,
)
from repro.core.managed import ShadowedQueue

CHUNK = 64
ITEMS = 12
KEYS = [f"k{i}" for i in range(3 * ITEMS)]


def make_queue(kind: str):
    if kind == "cliffhanger":
        config = CliffConfig(
            chunk_size=CHUNK, probe_items=3, hill_shadow_bytes=8 * CHUNK
        )
        return CliffhangerQueue("q", ITEMS * CHUNK, config)
    return ShadowedQueue(
        make_policy(kind, ITEMS * CHUNK, name="q"),
        shadow_bytes=8 * CHUNK,
        name="q",
    )


def physical_len(queue) -> int:
    if isinstance(queue, ShadowedQueue):
        return len(queue)
    return queue.left.chain.physical_len() + queue.right.chain.physical_len()


def is_physical(queue, key) -> bool:
    if isinstance(queue, ShadowedQueue):
        return key in queue.policy
    return any(
        (segment := partition.chain.segment_of(key)) is not None
        and segment <= SEG_TAIL
        for partition in (queue.left, queue.right)
    )


def checked_insert(queue, key, weight) -> int:
    """``insert`` must report exactly what left physical memory: the
    bracket the hill engine used to put around every fill."""
    before = physical_len(queue)
    added = 0 if is_physical(queue, key) else 1  # re-SETs add nothing
    evicted = queue.insert(key, weight)
    assert evicted == before + added - physical_len(queue)
    return evicted


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", sorted(POLICIES) + ["cliffhanger"])
def test_both_queue_types_answer_the_protocol(kind, seed):
    rng = random.Random(seed)
    queue = make_queue(kind)
    finds = 0
    for _ in range(1500):
        key = rng.choice(KEYS)
        roll = rng.random()
        resident = is_physical(queue, key)
        if roll < 0.55:
            result = queue.access(key)
            assert type(result) is int and result in (
                ACCESS_MISS, ACCESS_HIT, ACCESS_HILL_FIND, ACCESS_CLIFF_FIND,
            )
            # Only physical memory serves a hit; a shadow find is a miss
            # that forgets the key and leaves the fill to the caller.
            assert (result == ACCESS_HIT) == resident
            if result != ACCESS_HIT:
                finds += result != ACCESS_MISS
                assert queue.access(key) == ACCESS_MISS
                checked_insert(queue, key, CHUNK)
        elif roll < 0.8:
            checked_insert(queue, key, CHUNK)
        elif roll < 0.9:
            assert queue.remove(key) is resident
            assert queue.access(key) == ACCESS_MISS  # shadows purged too
        else:
            before = physical_len(queue)
            evicted = queue.set_capacity(rng.randrange(2, 2 * ITEMS) * CHUNK)
            assert evicted == before - physical_len(queue)
        assert queue.used_bytes <= queue.capacity_bytes + 1e-6
    assert finds > 0  # the shadow segments were actually exercised


OPS = st.lists(
    st.tuples(
        st.sampled_from(["get", "set", "delete", "resize"]),
        st.integers(0, 23),
        st.integers(1, 5),
    ),
    max_size=150,
)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_shadowed_insert_count_equals_the_physical_bracket(policy, ops):
    """Property: under any mix of GETs, SETs of varying weight, DELETEs
    and resizes, ``ShadowedQueue.insert`` returns what the before/after
    bracket measures -- for every policy, segmented ones included."""
    queue = ShadowedQueue(make_policy(policy, 16, name="q"), shadow_bytes=8)
    for op, index, size in ops:
        key = f"k{index}"
        if op == "get":
            if queue.access(key) != ACCESS_HIT:
                checked_insert(queue, key, size)
        elif op == "set":
            checked_insert(queue, key, size)
        elif op == "delete":
            queue.remove(key)
        else:
            queue.set_capacity(4 * size)
        assert key not in queue.shadow or key not in queue.policy
