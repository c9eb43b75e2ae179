"""Vectorized routing plans: per-request shard ids computed in bulk.

Routing one request at a time pays taxes Cliffhanger's
no-coordination design (paper section 4.3) does not require: shards are
fully independent between rebalance epochs, so *where* each request goes
is a pure function of the trace and the ring -- it can be computed once,
in bulk, and reused across every replay of the same (trace, ring) pair.

A :class:`RoutingPlan` is one ``shard_ids`` column for a whole compiled
trace:

* the primary shard per key comes from a bulk splitmix64 pass over the
  trace's ``key_table`` (numpy; bit-identical to
  :func:`repro.common.hashing.stable_hash_u64`), followed by one
  ``searchsorted`` against the ring's token column;
* for replication R > 1, the per-request replica is resolved ahead of
  time from the key's occurrence index (the round-robin "turn" the lazy
  per-key counters would have reached), so the precomputed choice is
  identical to routing request by request.

Plans are cached through :class:`~repro.workloads.compiled.TraceCache`
(:func:`get_routing_plan`), keyed by the trace's routing digest plus
every ring parameter, so sweeps over schemes/budgets re-route nothing.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import ConfigurationError, TraceFormatError
from repro.common.hashing import _splitmix64, stable_hash_u64

if TYPE_CHECKING:  # circular at runtime: compiled.py routes through us
    from repro.cluster.hashring import HashRing
    from repro.workloads.compiled import CompiledTrace, TraceCache

#: Bump when the on-disk plan layout (or the routing math) changes;
#: stale files are rebuilt.
PLAN_FORMAT_VERSION = 1

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array (wrapping mod 2^64)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hash_keys_u64(keys: List[str], salt: int = 0) -> np.ndarray:
    """:func:`stable_hash_u64` over a column of string keys, vectorized.

    FNV-1a consumes one byte position per pass over the whole column
    (keys in one trace are short and near-uniform in length, so this is
    ~len(longest key) numpy passes), then one vectorized splitmix64
    finalizer. Bit-identical to the scalar helper by construction; the
    unit tests pin that down.
    """
    count = len(keys)
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    encoded = [key.encode("utf-8") for key in keys]
    lengths = np.fromiter(
        (len(blob) for blob in encoded), dtype=np.int64, count=count
    )
    flat = np.frombuffer(b"".join(encoded), dtype=np.uint8).astype(np.uint64)
    offsets = np.zeros(count, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    seeds = np.full(count, _FNV_OFFSET, dtype=np.uint64)
    for position in range(int(lengths.max())):
        live = lengths > position
        seeds[live] = (
            seeds[live] ^ flat[offsets[live] + position]
        ) * _FNV_PRIME
    salt_mix = np.uint64(_splitmix64(salt & ((1 << 64) - 1)))
    return _splitmix64_array(seeds ^ salt_mix)


def occurrence_index(key_ids: np.ndarray) -> np.ndarray:
    """Per position, how many earlier positions hold the same key id.

    This is exactly the round-robin "turn" lazy per-key counters
    would have reached at each request. Computed with a
    stable sort: within each key's group the original order survives, so
    ``arange - group_start`` is the occurrence count.
    """
    total = len(key_ids)
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(key_ids, kind="stable")
    sorted_ids = key_ids[order]
    arange = np.arange(total, dtype=np.int64)
    is_start = np.ones(total, dtype=bool)
    is_start[1:] = sorted_ids[1:] != sorted_ids[:-1]
    group_start = np.maximum.accumulate(np.where(is_start, arange, 0))
    turns = np.empty(total, dtype=np.int64)
    turns[order] = arange - group_start
    return turns


def effective_replication(replication: int, shards: int) -> int:
    """The replication factor a ``shards``-wide ring actually runs at.

    Every consumer of a replication parameter -- plan construction, plan
    cache keys, :meth:`RoutingPlan.matches_ring`, and
    :class:`LiveRouter` -- must agree on how out-of-range values clamp,
    or a plan keyed/built at one effective value can be matched (or
    missed) at another. This is the single definition: at least one
    replica, at most one per shard.
    """
    return min(max(int(replication), 1), int(shards))


class RoutingPlan:
    """One precomputed ``shard_ids`` column for a (trace, ring) pair.

    ``shard_ids[i]`` is the shard that request ``i`` of the trace lands
    on -- replication round-robin already resolved. The replay
    (:meth:`repro.cluster.Cluster.replay_compiled`) stable-partitions
    this column into per-(shard, app) runs, keeping each run's positions
    in original trace order, which is what makes per-run replay
    bit-identical to the interleaved loop: shards share no state between
    rebalance barriers, and tenants on one shard share none either.
    """

    __slots__ = ("shards", "hash_seed", "virtual_nodes", "replication", "shard_ids")

    def __init__(
        self,
        shards: int,
        hash_seed: int,
        virtual_nodes: int,
        replication: int,
        shard_ids: np.ndarray,
    ) -> None:
        self.shards = int(shards)
        self.hash_seed = int(hash_seed)
        self.virtual_nodes = int(virtual_nodes)
        self.replication = int(replication)
        self.shard_ids = np.ascontiguousarray(shard_ids, dtype=np.int32)

    def __len__(self) -> int:
        return len(self.shard_ids)

    def matches_ring(self, ring: "HashRing", replication: int) -> bool:
        """Whether this plan was built for ``ring`` at ``replication``.

        Same-shape plans from differently-parameterized rings route
        every key differently, so the replay validates the full ring
        identity, not just the shard count.
        """
        return (
            self.shards == ring.shards
            and self.hash_seed == ring.seed
            and self.virtual_nodes == ring.virtual_nodes
            and self.replication
            == effective_replication(replication, ring.shards)
        )

    # ------------------------------------------------------------------
    # Disk format (the plan half of the two-level trace cache)
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Serialize to ``.npz``, atomically (tmp file + rename)."""
        from repro.workloads.compiled import save_npz_atomic

        return save_npz_atomic(
            path,
            {
                "version": np.array([PLAN_FORMAT_VERSION]),
                "shards": np.array([self.shards]),
                "hash_seed": np.array([self.hash_seed]),
                "virtual_nodes": np.array([self.virtual_nodes]),
                "replication": np.array([self.replication]),
                "shard_ids": self.shard_ids,
            },
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RoutingPlan":
        """Deserialize, validating the shard column before trusting it.

        A corrupt or truncated file whose ``shard_ids`` fall outside
        ``[0, shards)`` would pass the caller's length and
        :meth:`matches_ring` checks and then misroute (or IndexError
        deep inside the replay gather), so the range check lives here:
        any violation raises :class:`TraceFormatError`, which the cache
        layer treats exactly like a stale entry -- rebuild and
        overwrite.
        """
        with np.load(path, allow_pickle=False) as data:
            if int(data["version"][0]) != PLAN_FORMAT_VERSION:
                raise TraceFormatError(
                    f"{path}: unsupported routing-plan version"
                )
            shards = int(data["shards"][0])
            replication = int(data["replication"][0])
            shard_ids = data["shard_ids"]
            if shards < 1:
                raise TraceFormatError(
                    f"{path}: routing plan declares {shards} shard(s)"
                )
            if not 1 <= replication <= shards:
                raise TraceFormatError(
                    f"{path}: routing plan replication {replication} "
                    f"outside [1, {shards}]"
                )
            if shard_ids.ndim != 1 or not np.issubdtype(
                shard_ids.dtype, np.integer
            ):
                raise TraceFormatError(
                    f"{path}: shard_ids must be a 1-d integer column, "
                    f"got shape {shard_ids.shape} dtype {shard_ids.dtype}"
                )
            if len(shard_ids) > 0:
                low = int(shard_ids.min())
                high = int(shard_ids.max())
                if low < 0 or high >= shards:
                    raise TraceFormatError(
                        f"{path}: shard_ids range [{low}, {high}] "
                        f"outside [0, {shards})"
                    )
            return cls(
                shards,
                int(data["hash_seed"][0]),
                int(data["virtual_nodes"][0]),
                replication,
                shard_ids,
            )


def ring_positions(trace: "CompiledTrace", ring: "HashRing") -> np.ndarray:
    """Per trace key, the ring position its hash bisects to.

    The shared first half of every bulk routing pass: one vectorized
    splitmix64 sweep over ``trace.key_table`` plus one ``searchsorted``
    against the ring's token column. ``positions[key_id]`` indexes the
    ring's ``token_table()``/``successor_table()`` rows.
    """
    key_table = trace.key_table
    if all(isinstance(key, str) for key in key_table):
        hashes = hash_keys_u64(key_table, salt=ring.seed)
    else:  # hand-built traces with exotic keys: scalar fallback
        hashes = np.fromiter(
            (stable_hash_u64(key, salt=ring.seed) for key in key_table),
            dtype=np.uint64,
            count=len(key_table),
        )
    tokens, _ = ring.token_table()
    token_column = np.asarray(tokens, dtype=np.uint64)
    # bisect_right then wrap-to-0 at the end of the ring == mod.
    return np.searchsorted(token_column, hashes, side="right") % len(
        token_column
    )


def build_routing_plan(
    trace: "CompiledTrace", ring: "HashRing", replication: int = 1
) -> RoutingPlan:
    """Route every request of a compiled trace through ``ring`` at once.

    Bit-identical to routing the trace through
    :meth:`~repro.cluster.hashring.HashRing.shard_for` /
    ``shards_for`` with lazy per-key round-robin counters starting at 0
    (what one ``Cluster.replay_compiled`` call does): the replica turn is
    the key's occurrence index in this trace.
    """
    if replication < 1:
        raise ConfigurationError(
            f"replication must be >= 1, got {replication}"
        )
    replication = effective_replication(replication, ring.shards)
    positions = ring_positions(trace, ring)
    key_ids = np.asarray(trace.key_ids, dtype=np.int64)
    if replication == 1:
        _, owners = ring.token_table()
        primary = np.asarray(owners, dtype=np.int32)[positions]
        shard_ids = primary[key_ids]
    else:
        successors = np.asarray(
            ring.successor_table(replication), dtype=np.int32
        )
        turns = occurrence_index(key_ids)
        shard_ids = successors[
            positions[key_ids], turns % np.int64(replication)
        ]
    return RoutingPlan(
        ring.shards, ring.seed, ring.virtual_nodes, replication, shard_ids
    )


def remember_column(
    memo: Dict[Tuple[bool, ...], np.ndarray],
    mask: Tuple[bool, ...],
    column: np.ndarray,
) -> None:
    """Store ``column`` in a per-live-mask memo, keeping it bounded.

    A memo holds the all-live entry plus the most recent other live set:
    every window between two fault events routes under one mask, and
    crash/restart pairs return to all-live, so older masks are dead
    weight -- and with full-trace columns as values, one entry per
    distinct mask would grow without limit on a long schedule.
    """
    if not all(mask):
        for stale in [known for known in memo if not all(known)]:
            del memo[stale]
    memo[mask] = column


class LiveRouter:
    """Per-live-set routing columns for the fault-aware failover replay.

    Crashing a shard changes where its keys land (next live successor)
    without moving anyone else's keys -- consistent hashing's whole
    point -- so the fault replay re-derives the routing column at every
    fault window instead of once per (trace, ring). This router shares
    the expensive, live-set-independent halves across windows: the
    per-key ring positions, the per-request round-robin turns, and the
    ring's full successor order. A window's column is then one
    table-filter plus one gather, memoized through
    :func:`remember_column` (the all-live column plus the latest other
    live set).

    The routing contract matches the per-request reference exactly: a key's
    replica set is the first ``min(replication, live_count)`` *live*
    successors clockwise of its hash, and its round-robin turn is its
    occurrence index over the whole trace (counters do not reset at
    fault barriers).
    """

    def __init__(
        self,
        trace: "CompiledTrace",
        ring: "HashRing",
        replication: int,
        base_plan: Optional[RoutingPlan] = None,
    ) -> None:
        self.ring = ring
        self.replication = effective_replication(replication, ring.shards)
        self._trace = trace
        self._positions: Optional[np.ndarray] = None
        self._turns: Optional[np.ndarray] = None
        self._key_ids: Optional[np.ndarray] = None
        self._columns: Dict[Tuple[bool, ...], np.ndarray] = {}
        if base_plan is not None and len(base_plan) == len(trace):
            # The all-live column is the cached RoutingPlan; reuse it so
            # no-fault windows pay nothing the plain replay would not.
            self._columns[(True,) * ring.shards] = base_plan.shard_ids

    def _ensure_tables(self) -> None:
        if self._positions is not None:
            return
        trace = self._trace
        self._positions = ring_positions(trace, self.ring)
        self._key_ids = np.asarray(trace.key_ids, dtype=np.int64)
        self._turns = occurrence_index(self._key_ids)

    def shard_ids(self, live: Sequence[bool]) -> np.ndarray:
        """The full-trace shard column under ``live`` (memoized)."""
        mask = tuple(bool(flag) for flag in live)
        if len(mask) != self.ring.shards:
            raise ConfigurationError(
                f"live mask covers {len(mask)} shard(s); ring has "
                f"{self.ring.shards}"
            )
        column = self._columns.get(mask)
        if column is not None:
            return column
        self._ensure_tables()
        alive = sum(mask)
        effective = min(self.replication, alive)
        table = np.asarray(
            self.ring.live_successor_table(effective, mask), dtype=np.int32
        )
        if effective == 1:
            column = table[:, 0][self._positions][self._key_ids]
        else:
            column = table[
                self._positions[self._key_ids],
                self._turns % np.int64(effective),
            ]
        column = np.ascontiguousarray(column, dtype=np.int32)
        remember_column(self._columns, mask, column)
        return column


def plan_cache_key(
    trace: "CompiledTrace", ring: "HashRing", replication: int
) -> str:
    """Cache key encoding everything the plan depends on: the routed key
    sequence (trace digest) and every ring/replication parameter.

    The replication component is the *effective* (clamped) value: plans
    built at ``replication > shards`` are identical to plans built at
    ``shards``, and keying them apart would store the same bytes twice
    while a key at the raw value could never match the clamped value
    recorded inside the plan file.
    """
    return (
        f"routing-{trace.routing_digest()}-s{ring.shards}-h{ring.seed}"
        f"-v{ring.virtual_nodes}"
        f"-r{effective_replication(replication, ring.shards)}"
        f"-p{PLAN_FORMAT_VERSION}"
    )


def get_routing_plan(
    trace: "CompiledTrace",
    ring: "HashRing",
    replication: int = 1,
    cache: Optional["TraceCache"] = None,
) -> RoutingPlan:
    """Fetch (or build and cache) the plan for ``(trace, ring)``.

    ``cache`` defaults to the process-wide
    :data:`~repro.workloads.compiled.GLOBAL_TRACE_CACHE`, so scenario
    sweeps -- including worker processes sharing the on-disk store --
    route each (trace, ring) pair exactly once. With
    ``REPRO_TRACE_CACHE=off`` the plan still caches in process memory,
    just not on disk.
    """
    if replication < 1:
        # Reject up front: with the cache key clamped, a warm cache
        # could otherwise serve replication=0 the r=1 plan while a cold
        # cache raised from the build -- behavior must not depend on
        # cache warmth.
        raise ConfigurationError(
            f"replication must be >= 1, got {replication}"
        )
    if cache is None:
        from repro.workloads.compiled import GLOBAL_TRACE_CACHE as cache
    key = plan_cache_key(trace, ring, replication)
    plan = cache.get_or_build_plan(
        key, lambda: build_routing_plan(trace, ring, replication)
    )
    if len(plan) != len(trace) or not plan.matches_ring(ring, replication):
        # A digest collision would be astronomically unlikely; a stale
        # or corrupt disk entry is not. Rebuild rather than misroute --
        # and overwrite the poisoned entry so the next fetch is a hit
        # again instead of re-detecting the mismatch forever.
        plan = build_routing_plan(trace, ring, replication)
        cache.store_plan(key, plan)
    return plan
