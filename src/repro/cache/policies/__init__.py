"""Eviction policies.

Cliffhanger "supports any eviction policy, including LRU, LFU or hybrid
policies such as ARC" (paper section 1). This package provides the three
eviction schemes the paper evaluates (section 5.5, Table 5):

================  ==========================================================
``lru``           Least-recently-used (Memcached's default; paper baseline).
``facebook``      Facebook's mid-insertion scheme (section 5.5): first hit
                  inserts mid-queue, second hit promotes to the top.
``arc``           Adaptive Replacement Cache (Megiddo & Modha, FAST'03).
================  ==========================================================

All policies share the :class:`EvictionPolicy` interface: capacities and
item weights are measured in bytes, and evictions are *returned* to the
caller so that engines can forward evicted keys into shadow queues.
"""

from typing import Callable, Dict

from repro.common.errors import ConfigurationError
from repro.cache.policies.base import EvictionPolicy
from repro.cache.policies.lru import LRUPolicy
from repro.cache.policies.facebook import FacebookPolicy
from repro.cache.policies.arc import ARCPolicy

PolicyFactory = Callable[[float, str], EvictionPolicy]

#: Registry mapping policy names to factories ``(capacity, name) -> policy``.
POLICIES: Dict[str, PolicyFactory] = {
    "lru": lambda capacity, name="": LRUPolicy(capacity, name=name),
    "facebook": lambda capacity, name="": FacebookPolicy(capacity, name=name),
    "arc": lambda capacity, name="": ARCPolicy(capacity, name=name),
}


def make_policy(kind: str, capacity: float, name: str = "") -> EvictionPolicy:
    """Instantiate a registered policy by name."""
    try:
        factory = POLICIES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {kind!r}; known: {sorted(POLICIES)}"
        ) from None
    return factory(capacity, name)


__all__ = [
    "EvictionPolicy",
    "LRUPolicy",
    "FacebookPolicy",
    "ARCPolicy",
    "POLICIES",
    "PolicyFactory",
    "make_policy",
]
