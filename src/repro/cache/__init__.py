"""Memcached-style cache substrate.

This package implements the systems the paper's algorithms run on top of:

* :mod:`repro.cache.keyqueue` -- weighted ordered key queues and chained
  queues (physical queue + probe + shadow extensions), the single data
  structure from which eviction queues and shadow queues are built.
* :mod:`repro.cache.slabs` -- slab-class geometry (Memcached's size ladder)
  and the one request -> ``(slab_class, chunk, item_bytes)`` rule.
* :mod:`repro.cache.policies` -- eviction policies (LRU, LFU, ARC,
  Facebook mid-insertion, LRU-K, 2Q, SLRU).
* :mod:`repro.cache.engines` -- memory-management engines: the default
  first-come-first-serve Memcached behaviour, statically planned
  allocations, and the log-structured (global LRU) mode.
* :mod:`repro.cache.kernel` -- the one loop that walks requests into
  ``Engine.process_fast``: per-(shard, app) runs with tallied outcomes.
* :mod:`repro.cache.server` -- the multi-tenant cache server tying it all
  together.
* :mod:`repro.cache.stats` -- hit/miss accounting.
"""

from repro.cache.keyqueue import KeyQueue, QueueChain
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import AccessOutcome, HitMissCounter

__all__ = [
    "KeyQueue",
    "QueueChain",
    "SlabGeometry",
    "AccessOutcome",
    "HitMissCounter",
]
