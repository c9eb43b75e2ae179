"""Tests for slab geometry and the one request -> row rule."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.slabs import SlabGeometry
from repro.common.constants import ITEM_OVERHEAD_BYTES
from repro.common.errors import CacheError, ConfigurationError


@st.composite
def ladders_and_sizes(draw):
    """A strictly increasing ladder plus ``(key_size, value_size)``
    pairs whose totals straddle every chunk boundary (one below, on,
    one above), reach past the largest chunk and dip to <= 0."""
    ladder = sorted(
        draw(st.sets(st.integers(1, 6000), min_size=1, max_size=8))
    )
    totals = [edge + nudge for edge in ladder for nudge in (-1, 0, 1)]
    totals += draw(st.lists(st.integers(-50, ladder[-1] + 50), max_size=12))
    pairs = []
    for total in totals:
        key_size = draw(st.integers(0, 40))
        pairs.append((key_size, total - ITEM_OVERHEAD_BYTES - key_size))
    return SlabGeometry(tuple(ladder)), pairs


class TestRowRule:
    def test_row_charges_the_header_to_the_class_only(self):
        geometry = SlabGeometry.default()
        # 3 + 100 + 48 = 151 -> the 256 B class; the item itself is 103 B.
        assert geometry.row(3, 100) == (2, 256, 103)
        # 0 + 16 + 48 exactly fills the smallest chunk; one more byte spills.
        assert geometry.row(0, 64 - ITEM_OVERHEAD_BYTES) == (0, 64, 16)
        assert geometry.row(1, 64 - ITEM_OVERHEAD_BYTES) == (1, 128, 17)

    @settings(max_examples=200, deadline=None)
    @given(case=ladders_and_sizes())
    def test_vectorised_equals_scalar_equals_class_for_size(self, case):
        geometry, pairs = case
        ladder = geometry.chunk_sizes
        valid = []
        for key_size, value_size in pairs:
            columns = (np.array([key_size]), np.array([value_size]))
            try:
                expected = geometry.class_for_size(
                    key_size + value_size + ITEM_OVERHEAD_BYTES
                )
            except CacheError:
                with pytest.raises(CacheError):
                    geometry.row(key_size, value_size)
                with pytest.raises(CacheError):
                    geometry.rows(*columns)
                continue
            row = geometry.row(key_size, value_size)
            assert row == (expected, ladder[expected], key_size + value_size)
            assert tuple(c.tolist() for c in geometry.rows(*columns)) == (
                [row[0]], [row[1]], [row[2]]
            )
            valid.append((key_size, value_size) + row)
        # As one batch: the valid rows classify column for column, and a
        # single bad row refuses the whole batch.
        columns = [np.array(c, dtype=np.int64) for c in zip(*valid)]
        assert [c.tolist() for c in geometry.rows(*columns[:2])] == [
            c.tolist() for c in columns[2:]
        ]
        if len(valid) < len(pairs):
            with pytest.raises(CacheError):
                geometry.rows(
                    *(np.array(c, dtype=np.int64) for c in zip(*pairs))
                )

    def test_empty_batch(self):
        empty = np.array([], dtype=np.int64)
        assert [
            c.tolist() for c in SlabGeometry.default().rows(empty, empty)
        ] == [[], [], []]

    def test_error_messages_match_the_primitive(self):
        geometry = SlabGeometry.default()
        for key_size, value_size in ((0, 1 << 20), (0, -ITEM_OVERHEAD_BYTES)):
            with pytest.raises(CacheError) as scalar:
                geometry.row(key_size, value_size)
            with pytest.raises(CacheError) as vector:
                geometry.rows(np.array([key_size]), np.array([value_size]))
            assert str(vector.value) == str(scalar.value)


class TestSlabGeometry:
    def test_default_is_power_of_two_15_classes(self):
        geometry = SlabGeometry.default()
        assert len(geometry.chunk_sizes) == 15
        assert geometry.chunk_sizes[0] == 64
        assert geometry.chunk_sizes[-1] == 1 << 20
        for a, b in zip(geometry.chunk_sizes, geometry.chunk_sizes[1:]):
            assert b == 2 * a

    def test_class_for_size_boundaries(self):
        geometry = SlabGeometry.default()
        assert geometry.class_for_size(1) == 0
        assert geometry.class_for_size(64) == 0
        assert geometry.class_for_size(65) == 1
        assert geometry.class_for_size(128) == 1
        assert geometry.class_for_size(129) == 2

    def test_item_too_large_raises(self):
        geometry = SlabGeometry.default()
        with pytest.raises(CacheError):
            geometry.class_for_size((1 << 20) + 1)

    def test_non_positive_size_raises(self):
        with pytest.raises(CacheError):
            SlabGeometry.default().class_for_size(0)

    def test_unsorted_rejected(self):
        with pytest.raises(ConfigurationError):
            SlabGeometry((128, 64))
