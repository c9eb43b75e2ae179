"""Tests for deterministic hashing."""

import collections

import pytest
from hypothesis import given, strategies as st

from repro.common.hashing import (
    premix_salt,
    premixed_hash_u64,
    premixed_unit_hash,
    routing_hash,
    stable_hash_u64,
    unit_interval_hash,
)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash_u64("user:42") == stable_hash_u64("user:42")

    def test_salt_changes_value(self):
        assert stable_hash_u64("key", salt=1) != stable_hash_u64("key", salt=2)

    def test_int_and_str_keys_supported(self):
        assert isinstance(stable_hash_u64(7), int)
        assert isinstance(stable_hash_u64(b"raw"), int)
        assert isinstance(stable_hash_u64(("tuple", 1)), int)

    def test_known_value_stability(self):
        # Pin a value so accidental algorithm changes are caught: the
        # partition routing of persisted experiments depends on it.
        assert stable_hash_u64("cliffhanger", salt=0) == stable_hash_u64(
            "cliffhanger"
        )

    @given(st.text(max_size=64))
    def test_in_range(self, key):
        value = stable_hash_u64(key)
        assert 0 <= value < (1 << 64)


class TestUnitIntervalHash:
    @given(st.text(max_size=32), st.integers(min_value=0, max_value=10))
    def test_in_unit_interval(self, key, salt):
        u = unit_interval_hash(key, salt)
        assert 0.0 <= u < 1.0

    def test_roughly_uniform(self):
        buckets = collections.Counter(
            int(unit_interval_hash(f"key-{i}") * 10) for i in range(20000)
        )
        for bucket in range(10):
            assert 1600 < buckets[bucket] < 2400

    def test_threshold_monotonicity(self):
        """Raising the threshold only ever adds keys to the left side."""
        keys = [f"key-{i}" for i in range(2000)]
        left_small = {k for k in keys if unit_interval_hash(k) < 0.3}
        left_large = {k for k in keys if unit_interval_hash(k) < 0.5}
        assert left_small <= left_large


#: ``(key, salt, stable_hash_u64, unit_interval_hash)`` as the hash has
#: always computed them: partition routing, ring positions and item
#: sizes of every pinned experiment depend on these values.
KNOWN = [
    ("cliffhanger", 0, 17815475425766314630, 0.9657788580238977),
    ("app19:s:0", 3, 2287814316861364116, 0.12402266262922657),
    (b"raw", 211, 13862560303932557970, 0.7514908998867497),
    (7, 107, 11237183520609536070, 0.6091689392831584),
    (("tuple", 1), -5, 2771256093913329735, 0.15023009387672626),
]

KEYS = st.one_of(
    st.text(max_size=24),
    st.binary(max_size=24),
    st.integers(-(1 << 70), 1 << 70),
    st.tuples(st.text(max_size=4), st.integers(0, 9)),
)
SALTS = st.integers(-(1 << 70), 1 << 70)


class TestPremixedSalt:
    @pytest.mark.parametrize("key, salt, u64, unit", KNOWN)
    def test_known_values(self, key, salt, u64, unit):
        assert stable_hash_u64(key, salt) == u64
        assert premixed_hash_u64(key, premix_salt(salt)) == u64
        assert unit_interval_hash(key, salt) == unit
        assert premixed_unit_hash(key, premix_salt(salt)) == unit
        assert routing_hash(key, premix_salt(salt)) == unit

    @given(KEYS, SALTS)
    def test_premixed_hash_is_the_stable_hash(self, key, salt):
        """Mixing the salt once changes no bit of any hash."""
        mixed = premix_salt(salt)
        assert premixed_hash_u64(key, mixed) == stable_hash_u64(key, salt)
        unit = unit_interval_hash(key, salt)
        assert premixed_unit_hash(key, mixed) == unit
        # The memo answers the same the first time and the next.
        assert routing_hash(key, mixed) == unit
        assert routing_hash(key, mixed) == unit

    def test_routing_memo_tells_types_apart(self):
        """``1`` and ``1.0`` compare equal but hash apart: the memo is
        typed, so it never answers one with the other's hash."""
        mixed = premix_salt(3)
        assert routing_hash(1, mixed) == unit_interval_hash(1, 3)
        assert routing_hash(1.0, mixed) == unit_interval_hash(1.0, 3)
        assert unit_interval_hash(1, 3) != unit_interval_hash(1.0, 3)
