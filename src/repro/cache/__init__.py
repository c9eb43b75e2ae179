"""Memcached-style cache substrate.

This package implements the systems the paper's algorithms run on top of:

* :mod:`repro.cache.slabs` -- slab-class geometry (Memcached's size ladder)
  and the one request -> ``(slab_class, chunk, item_bytes)`` rule.
* :mod:`repro.cache.policies` -- the eviction policies Table 5 runs
  (LRU, Facebook mid-insertion, ARC), each over ordered dicts of key ->
  weight with a byte total beside each. The hill-climbing shadow queues
  are LRU policies too (:mod:`repro.core.managed`).
* :mod:`repro.cache.engines` -- memory-management engines: the default
  first-come-first-serve Memcached behaviour, statically planned
  allocations, and the log-structured (global LRU) mode.
* :mod:`repro.cache.kernel` -- the replay kernel: a window's requests
  cut into per-(shard, app) runs, each handed to its engine's
  ``Engine.process_run`` (every request path's one entry point), with
  tallied outcomes.
* :mod:`repro.cache.server` -- the multi-tenant cache server tying it all
  together.
* :mod:`repro.cache.stats` -- hit/miss accounting.
"""

from repro.cache.slabs import SlabGeometry
from repro.cache.stats import HitMissCounter

__all__ = [
    "SlabGeometry",
    "HitMissCounter",
]
