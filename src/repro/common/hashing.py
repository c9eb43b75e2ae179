"""Deterministic hashing helpers.

The cliff-scaling algorithm routes each key to either the left or the right
partition of a queue by hashing the key to the unit interval and comparing
against the request ratio (Talus-style partitioning, paper section 4.2).
The routing must be:

* **deterministic across processes** -- Python's builtin ``hash`` is salted
  per interpreter run (PYTHONHASHSEED), so it cannot be used;
* **stable under repartitioning** -- when the ratio moves from 0.48 to 0.50
  only the keys hashing into ``[0.48, 0.50)`` may switch queues;
* **independent per salt** -- different queues must not partition the key
  space identically, otherwise correlated keys always co-locate.

We use a splitmix64-style finalizer, which is fast, has excellent avalanche
behaviour, and needs no external dependencies.

The salt enters the finalizer through a splitmix round of its own, so a
caller whose salt is constant (a queue, a ring, a size model) mixes it
once with :func:`premix_salt` and hashes with
:func:`premixed_hash_u64`, bit-identical to :func:`stable_hash_u64`.
A split Cliffhanger queue routes through :func:`routing_hash`, the same
hash in ``[0, 1)`` behind a bounded memo: a hot key's FNV loop runs
once, not once per request.
"""

from __future__ import annotations

from functools import lru_cache

_MASK64 = (1 << 64) - 1
#: ``2**64`` as a float: divides a 64-bit hash into ``[0, 1)``.
_UNIT = float(1 << 64)
#: Most ``(key, salt)`` pairs :func:`routing_hash` remembers.
ROUTING_MEMO_KEYS = 1 << 14


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def premix_salt(salt: int) -> int:
    """The salt's own splitmix round: ``premixed_hash_u64(key,
    premix_salt(salt)) == stable_hash_u64(key, salt)``."""
    return _splitmix64(salt & _MASK64)


def stable_hash_u64(key: object, salt: int = 0) -> int:
    """Hash ``key`` to a uniform 64-bit integer, deterministically.

    ``key`` may be a string, bytes or int; other types are hashed through
    their ``repr``, which is stable for the key types used in traces.
    """
    return premixed_hash_u64(key, _splitmix64(salt & _MASK64))


def premixed_hash_u64(key: object, salt_mix: int) -> int:
    """:func:`stable_hash_u64` with the salt already through
    :func:`premix_salt`."""
    if isinstance(key, int):
        seed = key & _MASK64
    else:
        if isinstance(key, str):
            data = key.encode("utf-8")
        elif isinstance(key, bytes):
            data = key
        else:
            data = repr(key).encode("utf-8")
        # FNV-1a over the bytes gives a well-mixed 64-bit seed cheaply.
        seed = 0xCBF29CE484222325
        for byte in data:
            seed = ((seed ^ byte) * 0x100000001B3) & _MASK64
    return _splitmix64(seed ^ salt_mix)


def unit_interval_hash(key: object, salt: int = 0) -> float:
    """Hash ``key`` to a float uniform in ``[0, 1)``.

    Used to split a request stream between two partitions: a key goes left
    iff ``unit_interval_hash(key, salt) < left_fraction``. Because the hash
    is a fixed function of the key, moving the threshold moves only the
    keys whose hash lies between the old and new thresholds.
    """
    return stable_hash_u64(key, salt) / _UNIT


def premixed_unit_hash(key: object, salt_mix: int) -> float:
    """:func:`unit_interval_hash` with the salt already through
    :func:`premix_salt`."""
    return premixed_hash_u64(key, salt_mix) / _UNIT


#: :func:`premixed_unit_hash` behind a memo of the last
#: :data:`ROUTING_MEMO_KEYS` pairs (``typed``: ``1`` and ``1.0`` hash
#: apart): what a split queue routes a request with.
routing_hash = lru_cache(maxsize=ROUTING_MEMO_KEYS, typed=True)(
    premixed_unit_hash
)
