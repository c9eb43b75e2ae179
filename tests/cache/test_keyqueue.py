"""Tests for KeyQueue and for the oracle chain of
``tests/core/reference.py`` built on it, including the LRU-equivalence
property the whole shadow-queue design rests on."""


import pytest
from hypothesis import given, settings, strategies as st

from tests.cache.keyqueue import KeyQueue
from repro.common.errors import CacheError, ConfigurationError
from tests.core.reference import QueueChain


class TestKeyQueue:
    def test_push_front_orders_mru_first(self):
        q = KeyQueue(10)
        q.push_front("a", 1)
        q.push_front("b", 1)
        assert list(q.keys_mru_to_lru()) == ["b", "a"]

    def test_push_existing_updates_weight_and_used(self):
        q = KeyQueue(10)
        q.push_front("a", 2)
        q.push_front("a", 5)
        assert len(q) == 1
        assert q.used == 5

    def test_pop_back_removes_lru(self):
        q = KeyQueue(10)
        q.push_front("a", 1)
        q.push_front("b", 1)
        assert q.pop_back() == ("a", 1)

    def test_pop_empty_raises(self):
        with pytest.raises(CacheError):
            KeyQueue(1).pop_back()

    def test_overflow_pops_until_within_capacity(self):
        q = KeyQueue(3)
        for key in "abcde":
            q.push_front(key, 1)
        dropped = list(q.overflow())
        assert [k for k, _ in dropped] == ["a", "b"]
        assert q.used == 3

    def test_overflow_handles_oversized_item(self):
        q = KeyQueue(3)
        q.push_front("big", 10)
        dropped = list(q.overflow())
        assert dropped == [("big", 10)]
        assert len(q) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            KeyQueue(-1)

    def test_negative_weight_rejected(self):
        with pytest.raises(CacheError):
            KeyQueue(5).push_front("a", -1)

    def test_resize_does_not_evict_by_itself(self):
        q = KeyQueue(5)
        q.push_front("a", 5)
        q.resize(1)
        assert "a" in q  # caller drains overflow explicitly
        assert list(q.overflow()) == [("a", 5)]


class TestQueueChain:
    def make_chain(self, capacities=(2, 2, 2)):
        segments = [
            KeyQueue(c, name=f"seg{i}") for i, c in enumerate(capacities)
        ]
        return QueueChain(segments, physical_segments=1)

    def test_insert_and_access_front_segment(self):
        chain = self.make_chain()
        chain.insert("a", 1)
        assert chain.segment_of("a") == 0
        assert chain.access("a") == 0

    def test_cascade_demotes_to_next_segment(self):
        chain = self.make_chain((2, 2, 2))
        for key in "abc":
            chain.insert(key, 1)
        # "a" overflowed segment 0 into segment 1.
        assert chain.segment_of("a") == 1
        assert chain.segment_of("b") == 0

    def test_drop_off_the_end(self):
        chain = self.make_chain((1, 1, 1))
        for key in "abcd":
            chain.insert(key, 1)
        assert "a" not in chain
        assert len(chain) == 3

    def test_access_promotes_from_deep_segment(self):
        chain = self.make_chain((2, 2, 2))
        for key in "abcde":
            chain.insert(key, 1)
        deep = chain.segment_of("a")
        assert deep is not None and deep > 0
        assert chain.access("a") == deep
        assert chain.segment_of("a") == 0

    def test_access_miss_returns_none(self):
        chain = self.make_chain()
        assert chain.access("ghost") is None

    def test_remove(self):
        chain = self.make_chain()
        chain.insert("a", 1)
        assert chain.remove("a") is True
        assert chain.remove("a") is False

    def test_physical_accounting(self):
        chain = self.make_chain((2, 2, 2))
        for key in "abcd":
            chain.insert(key, 1)
        assert chain.physical_len() == 2

    def test_resize_segment_cascades(self):
        chain = self.make_chain((3, 1, 0))
        for key in "abc":
            chain.insert(key, 1)
        crossed = chain.resize_segment(0, 1)
        # a and b, the LRU of seg0, are demoted; seg1 holds b; seg2
        # (capacity 0) drops a.
        assert crossed == 2
        assert chain.segments[0].used == 1
        assert chain.segment_of("b") == 1
        assert "a" not in chain

    def test_duplicate_segment_names_rejected(self):
        with pytest.raises(ConfigurationError):
            QueueChain([KeyQueue(1, name="x"), KeyQueue(1, name="x")])

    def test_chain_equals_single_lru(self, rng):
        """THE load-bearing property: a chain of segments with
        promote-to-front semantics hits exactly like one LRU of the
        total size, and the segment index reports the item's rank band.
        """
        total = 30
        chain = QueueChain(
            [
                KeyQueue(10, name="a"),
                KeyQueue(5, name="b"),
                KeyQueue(15, name="c"),
            ],
            physical_segments=3,
        )
        single = KeyQueue(total, name="single")
        for step in range(4000):
            key = f"k{rng.randrange(60)}"
            found_chain = chain.access(key)
            if found_chain is None:
                chain.insert(key, 1)
            # single LRU
            if key in single:
                single.push_front(key, 1)
                found_single = True
            else:
                single.push_front(key, 1)
                for _ in single.overflow():
                    pass
                found_single = False
            assert (found_chain is not None) == found_single, step
        chain.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 25), st.booleans()),
            min_size=1,
            max_size=300,
        ),
        st.tuples(
            st.integers(1, 8), st.integers(0, 8), st.integers(0, 8)
        ),
    )
    def test_invariants_under_random_ops(self, ops, capacities):
        """Property: any op sequence leaves the chain self-consistent."""
        chain = QueueChain(
            [
                KeyQueue(c, name=f"s{i}")
                for i, c in enumerate(capacities)
            ],
            physical_segments=2,
        )
        for key_id, is_remove in ops:
            key = f"k{key_id}"
            if is_remove:
                chain.remove(key)
            elif chain.access(key) is None:
                chain.insert(key, 1)
        chain.check_invariants()

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("insert"), st.integers(0, 25), st.integers(1, 3)
                ),
                st.tuples(st.just("access"), st.integers(0, 25), st.just(0)),
                st.tuples(
                    st.just("resize"), st.integers(0, 3), st.integers(0, 8)
                ),
            ),
            min_size=1,
            max_size=200,
        ),
        st.integers(0, 4),
    )
    def test_cascade_reports_what_left_physical_memory(
        self, ops, physical_segments
    ):
        """Property: the count ``insert`` / ``resize_segment`` return is
        the drop in ``physical_len()`` (less the key inserted, when it
        was not physical already) -- whatever the weights, wherever the
        physical boundary sits."""
        chain = QueueChain(
            [KeyQueue(c, name=f"s{i}") for i, c in enumerate((4, 2, 3, 5))],
            physical_segments=physical_segments,
        )
        for op, first, second in ops:
            before = chain.physical_len()
            if op == "insert":
                key = f"k{first}"
                segment = chain.segment_of(key)
                physical = segment is not None and segment < physical_segments
                added = 0 if physical or not physical_segments else 1
                crossed = chain.insert(key, second)
                assert crossed == before + added - chain.physical_len()
            elif op == "resize":
                crossed = chain.resize_segment(first, second)
                assert crossed == before - chain.physical_len()
            else:
                chain.access(f"k{first}")
            chain.check_invariants()
