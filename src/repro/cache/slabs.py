"""Slab-class geometry.

Memcached avoids fragmentation by carving memory into *slab classes*; each
class stores items whose total size falls into a fixed range and allocates
fixed-size chunks (paper section 2: "< 128B, 128-256B, etc."). The
reproduction models each slab class as an eviction queue whose capacity is
measured in bytes and whose items each weigh exactly one chunk.

:class:`SlabGeometry` also owns the one rule that turns a request's sizes
into its ``(slab_class, chunk, item_bytes)``. The rows
:meth:`repro.cache.engines.Engine.process_run` takes carry the class
and item bytes; an engine reads the chunk off its own ladder. A trace
compile classifies through :meth:`SlabGeometry.rows`; the live batch path
(``Cluster.process_batch``) and the wire service's too-large check apply
the same rule inline, once per row, and
``tests/cluster/test_process_batch.py`` holds the live rows to the
compiled ones.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.common.constants import (
    ITEM_OVERHEAD_BYTES,
    MAX_CHUNK_BYTES,
    MIN_CHUNK_BYTES,
    NUM_SLAB_CLASSES,
)
from repro.common.errors import CacheError, ConfigurationError


@dataclass(frozen=True)
class SlabGeometry:
    """An immutable ladder of chunk sizes, smallest first.

    An item of total size ``s`` is stored in the smallest class whose chunk
    size is >= ``s`` and it occupies the whole chunk (internal
    fragmentation is real memory, and the simulator charges for it just
    like Memcached does).

    **The request -> row rule.** An item's total size is ``key_size +
    value_size + ITEM_OVERHEAD_BYTES`` (Memcached's item header rides in
    the chunk); its ``slab_class`` is ``bisect_left(chunk_sizes, total)``,
    its ``chunk`` is ``chunk_sizes[slab_class]`` and its ``item_bytes`` --
    what an engine without chunk rounding charges -- is ``key_size +
    value_size``, header excluded. :meth:`row` is the scalar form,
    :meth:`rows` the vectorised one; both raise :class:`CacheError` for
    an item past the largest chunk. :meth:`class_for_size` is the
    primitive they are tested against.
    """

    chunk_sizes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.chunk_sizes:
            raise ConfigurationError("slab geometry needs at least one class")
        sizes = list(self.chunk_sizes)
        if sizes != sorted(sizes):
            raise ConfigurationError("chunk sizes must be sorted ascending")
        if len(set(sizes)) != len(sizes):
            raise ConfigurationError("chunk sizes must be distinct")
        if sizes[0] <= 0:
            raise ConfigurationError("chunk sizes must be positive")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def power_of_two(
        cls,
        min_chunk: int = MIN_CHUNK_BYTES,
        max_chunk: int = MAX_CHUNK_BYTES,
    ) -> "SlabGeometry":
        """The paper's ladder: 64 B, 128 B, 256 B, ... up to 1 MB."""
        if min_chunk <= 0 or max_chunk < min_chunk:
            raise ConfigurationError(
                f"invalid chunk range [{min_chunk}, {max_chunk}]"
            )
        sizes = []
        size = min_chunk
        while size <= max_chunk:
            sizes.append(size)
            size *= 2
        return cls(tuple(sizes))

    @classmethod
    def default(cls) -> "SlabGeometry":
        """The geometry used throughout the reproduction (15 classes)."""
        geometry = cls.power_of_two()
        if len(geometry.chunk_sizes) != NUM_SLAB_CLASSES:
            raise ConfigurationError(
                "default geometry drifted from NUM_SLAB_CLASSES"
            )
        return geometry

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def chunk_size(self, class_index: int) -> int:
        """Chunk size in bytes of slab class ``class_index``."""
        return self.chunk_sizes[class_index]

    def class_for_size(self, total_size: int) -> int:
        """Return the slab class index that stores items of ``total_size``.

        Raises :class:`CacheError` for items larger than the largest chunk
        (Memcached rejects those with ``SERVER_ERROR object too large``).
        """
        if total_size <= 0:
            raise CacheError(f"item size must be positive, got {total_size}")
        idx = bisect.bisect_left(self.chunk_sizes, total_size)
        if idx >= len(self.chunk_sizes):
            raise CacheError(
                f"item of {total_size}B exceeds largest chunk "
                f"{self.chunk_sizes[-1]}B"
            )
        return idx

    def row(self, key_size: int, value_size: int) -> Tuple[int, int, int]:
        """``(slab_class, chunk, item_bytes)`` of one item (the rule in
        the class docstring, scalar form)."""
        item_bytes = key_size + value_size
        class_index = self.class_for_size(item_bytes + ITEM_OVERHEAD_BYTES)
        return class_index, self.chunk_sizes[class_index], item_bytes

    def rows(
        self, key_sizes: np.ndarray, value_sizes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`row` over two integer columns at once: the
        ``(slab_classes, chunk_bytes, item_bytes)`` columns."""
        item_bytes = key_sizes + value_sizes
        totals = item_bytes + ITEM_OVERHEAD_BYTES
        if totals.size:
            smallest, largest = int(totals.min()), int(totals.max())
            if smallest <= 0:
                raise CacheError(
                    f"item size must be positive, got {smallest}"
                )
            if largest > self.chunk_sizes[-1]:
                raise CacheError(
                    f"item of {largest}B exceeds largest chunk "
                    f"{self.chunk_sizes[-1]}B"
                )
        ladder = np.asarray(self.chunk_sizes, dtype=np.int64)
        classes = np.searchsorted(ladder, totals, side="left")
        return classes, ladder[classes], item_bytes
