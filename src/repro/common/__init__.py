"""Shared utilities for the Cliffhanger reproduction.

This package holds the small, dependency-free building blocks used across
the cache simulator, the profilers and the allocation algorithms:

* :mod:`repro.common.constants` -- paper-derived constants (shadow-queue
  sizes, credit sizes, slab geometry, per-item overheads).
* :mod:`repro.common.errors` -- the exception hierarchy.
* :mod:`repro.common.hashing` -- deterministic, seed-stable hashing used to
  route keys between partitioned queues (Python's builtin ``hash`` is salted
  per process and therefore unusable for reproducible simulation).
* :mod:`repro.common.mathutils` -- the concave hull Talus interpolates
  along.
"""

from repro.common.constants import (
    AVG_KEY_BYTES,
    CLIFF_MIN_QUEUE_ITEMS,
    CLIFF_PROBE_ITEMS,
    DEFAULT_CREDIT_BYTES,
    HILL_CLIMB_SHADOW_BYTES,
    ITEM_OVERHEAD_BYTES,
)
from repro.common.errors import (
    AllocationError,
    CacheError,
    ConfigurationError,
    ReproError,
    TraceFormatError,
)
from repro.common.hashing import stable_hash_u64, unit_interval_hash
from repro.common.mathutils import concave_hull

__all__ = [
    "AVG_KEY_BYTES",
    "CLIFF_MIN_QUEUE_ITEMS",
    "CLIFF_PROBE_ITEMS",
    "DEFAULT_CREDIT_BYTES",
    "HILL_CLIMB_SHADOW_BYTES",
    "ITEM_OVERHEAD_BYTES",
    "AllocationError",
    "CacheError",
    "ConfigurationError",
    "ReproError",
    "TraceFormatError",
    "stable_hash_u64",
    "unit_interval_hash",
    "concave_hull",
]
