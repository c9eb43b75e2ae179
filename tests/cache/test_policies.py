"""Tests for the eviction policies: per-policy behaviour plus generic
interface properties every policy must satisfy."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policies import POLICIES, make_policy
from repro.cache.policies.arc import ARCPolicy
from repro.cache.policies.facebook import FacebookPolicy
from repro.cache.policies.lru import LRUPolicy
from repro.common.errors import CacheError

ALL_KINDS = sorted(POLICIES)


class TestRegistry:
    def test_all_policies_constructible(self):
        for kind in ALL_KINDS:
            policy = make_policy(kind, 1024, name="t")
            assert policy.capacity == 1024
            assert len(policy) == 0

    def test_unknown_policy(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_policy("nope", 10)


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestGenericPolicyContract:
    """Invariants every policy must uphold."""

    def test_miss_then_hit(self, kind):
        policy = make_policy(kind, 1000)
        assert policy.access("a") is False
        policy.insert("a", 10)
        assert policy.access("a") is True

    def test_capacity_never_exceeded(self, kind, rng):
        policy = make_policy(kind, 50)
        for i in range(500):
            key = f"k{rng.randrange(40)}"
            if not policy.access(key):
                policy.insert(key, rng.choice([1, 3, 7]))
            assert policy.used <= 50 + 1e-9

    def test_eviction_returns_the_evicted(self, kind, rng):
        policy = make_policy(kind, 20)
        inserted, evicted = set(), set()
        for i in range(200):
            key = f"k{i}"
            inserted.add(key)
            for victim, _ in policy.insert(key, 1):
                evicted.add(victim)
        resident = set(policy.keys())
        assert resident | evicted == inserted
        assert not resident & evicted

    def test_remove(self, kind):
        policy = make_policy(kind, 100)
        policy.insert("a", 5)
        assert policy.remove("a") is True
        assert policy.access("a") is False
        assert policy.remove("a") is False
        assert policy.used == 0

    def test_remove_of_an_evicted_key_reports_absent(self, kind):
        """Ghost lists (ARC's B1/B2) remember keys, not
        values: removing one forgets it without claiming residency."""
        policy = make_policy(kind, 4)
        for i in range(12):
            policy.insert(f"k{i}", 1)
        for i in range(12):
            resident = f"k{i}" in policy
            assert policy.remove(f"k{i}") is resident, i
        assert len(policy) == 0 and policy.used == 0

    def test_resize_shrinks_and_evicts(self, kind):
        policy = make_policy(kind, 100)
        evicted_total = 0
        for i in range(10):
            evicted_total += len(policy.insert(f"k{i}", 10))
        evicted_total += len(policy.resize(30))
        assert policy.used <= 30
        # Everything not resident was reported evicted exactly once.
        assert evicted_total == 10 - len(policy)

    def test_reinsert_updates_weight(self, kind):
        policy = make_policy(kind, 100)
        policy.insert("a", 10)
        policy.insert("a", 15)
        assert len(policy) == 1
        assert policy.used == 15

    @pytest.mark.parametrize("method", ["insert", "store"])
    def test_refused_insert_changes_nothing(self, kind, method):
        """A negative weight raises before the policy moves: resident
        keys in either Facebook segment, ARC's T1, T2 and ghost keys, and
        absent keys alike."""
        policy = make_policy(kind, 10)
        policy.insert("a", 3)
        policy.access("a")
        for key in "bcd":
            policy.insert(key, 3)  # ARC demotes b into B1
        ghost = getattr(policy, "ghost_contains", lambda key: None)
        protected = getattr(policy, "in_protected", lambda key: None)

        def state():
            return (
                list(policy.keys()),
                policy.used,
                len(policy),
                getattr(policy, "p", None),
                [(ghost(key), protected(key)) for key in "abcde"],
            )

        before = state()
        for key in "abcde":
            resident = dict.fromkeys(policy.keys(), 0)
            resident[key] = 0
            args = (key, -1) if method == "insert" else (key, -1, resident)
            with pytest.raises(CacheError):
                getattr(policy, method)(*args)
            assert state() == before, key


class TestLRUSpecifics:
    def test_eviction_order_is_lru(self):
        policy = LRUPolicy(3)
        for key in "abc":
            policy.insert(key, 1)
        policy.access("a")  # a is now MRU
        evicted = policy.insert("d", 1)
        assert evicted == [("b", 1)]


class TestFacebookSpecifics:
    def test_insert_lands_in_probation(self):
        policy = FacebookPolicy(10)
        policy.insert("a", 1)
        assert not policy.in_protected("a")

    def test_hit_promotes_to_protected(self):
        policy = FacebookPolicy(10)
        policy.insert("a", 1)
        policy.access("a")
        assert policy.in_protected("a")

    def test_one_hit_wonders_evicted_before_promoted(self):
        policy = FacebookPolicy(4)
        policy.insert("hot", 1)
        policy.access("hot")  # promoted to top half
        for i in range(10):
            policy.insert(f"cold{i}", 1)
        assert "hot" in policy  # scanned-in cold keys never displaced it

    def test_facebook_is_half_split(self):
        policy = FacebookPolicy(100)
        for i in range(10):
            policy.insert(f"k{i}", 10)
        for i in range(10):
            policy.access(f"k{i}")
        protected = [key for key in policy.keys() if policy.in_protected(key)]
        assert len(protected) == 5
        assert len(policy) == 10

    def test_one_chunk_queue_keeps_its_insert(self):
        """A queue one item wide holds that item: probation may use
        whatever the protected half leaves free."""
        policy = make_policy("facebook", 0)
        policy.resize(192)
        assert policy.insert("a", 192) == []
        assert "a" in policy
        assert policy.access("a") is True

    def test_evicts_only_when_the_whole_queue_is_full(self):
        policy = FacebookPolicy(10)
        for i in range(10):
            assert policy.insert(f"k{i}", 1) == []
        assert policy.insert("k10", 1) == [("k0", 1)]


class TestARCSpecifics:
    def test_second_access_moves_to_frequency_list(self):
        policy = ARCPolicy(10)
        policy.insert("a", 1)
        assert policy.access("a") is True

    def test_ghost_hit_adapts_p(self):
        policy = ARCPolicy(4)
        for i in range(4):
            policy.insert(f"k{i}", 1)
        policy.access("k0")  # k0 -> T2, so T1 stays below capacity
        policy.insert("k4", 1)  # demotes a T1 victim into ghost B1
        ghosts = [k for k in ("k1", "k2", "k3") if policy.ghost_contains(k)]
        assert ghosts
        before = policy.p
        policy.insert(ghosts[0], 1)  # ghost hit favours recency
        assert policy.p >= before

    def test_scan_resistance(self, rng):
        """A hot working set survives a one-pass scan better under ARC
        than under LRU."""
        def run(policy):
            hot = [f"hot{i}" for i in range(8)]
            hits = 0
            for round_idx in range(60):
                for key in hot:
                    if policy.access(key):
                        hits += 1
                    else:
                        policy.insert(key, 1)
                if round_idx % 2 == 0:
                    scan_key = f"scan{round_idx}"
                    policy.insert(scan_key, 1)
            return hits
        arc_hits = run(ARCPolicy(10))
        assert arc_hits > 0.8 * 60 * 8


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_policy_random_soak(kind, data):
    """Property: random op soup never corrupts used/len accounting."""
    policy = make_policy(kind, 64)
    ops = data.draw(
        st.lists(
            st.tuples(st.integers(0, 30), st.sampled_from(["get", "set", "del"])),
            max_size=200,
        )
    )
    for key_id, op in ops:
        key = f"k{key_id}"
        if op == "get":
            policy.access(key)
        elif op == "set":
            policy.insert(key, (key_id % 5) + 1)
        else:
            policy.remove(key)
        assert policy.used <= 64 + 1e-9
        assert policy.used >= 0
    assert len(list(policy.keys())) == len(policy)
