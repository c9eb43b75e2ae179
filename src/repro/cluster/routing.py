"""The one router: key -> shard, for every caller.

Shards are fully independent between barriers (paper section 4.3), so
*where* a request goes is a pure function of its key, the ring, the live
set and how often the key was seen before. :class:`Router` owns the ring
and the effective replication, and holds the only implementation of the
three steps every route takes:

* *keys -> ring positions*: a bulk splitmix64 pass (numpy;
  bit-identical to :func:`repro.common.hashing.stable_hash_u64`) plus
  one ``searchsorted`` against the ring's token column;
* *live mask -> successor rows*: per ring position, the first
  ``min(replication, alive)`` distinct live owners clockwise;
* *gather*: a request's replica is its key's round-robin "turn" -- the
  count lazy per-key counters would have reached -- so a precomputed
  choice is identical to routing request by request.

Its callers differ only in where positions and turns come from:
:func:`build_routing_plan` (a whole compiled trace, all shards live,
cached through :func:`get_routing_plan` so sweeps re-route nothing),
:class:`TraceColumns` (the same trace under another live mask --
``failover`` with a shard down) and :meth:`Router.route_keys` (live
requests, in order, from a per-key position memo and per-key turn
counters; :meth:`Router.route` is its one-key case).

A :class:`RoutingPlan` keeps the positions and turns it was built from
(int32, at most 8 bytes per request; a plan loaded from disk derives
them on its first failover mask), so once the plan cache hands a
trace's replays the same plan object, another live mask costs one
:meth:`Router.gather` -- the key table is hashed once per plan, not
once per replay.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.common.errors import ConfigurationError, TraceFormatError
from repro.common.hashing import premix_salt

if TYPE_CHECKING:  # circular at runtime: compiled.py routes through us
    from repro.cluster.hashring import HashRing
    from repro.workloads.compiled import CompiledTrace, TraceCache

#: Bump when the on-disk plan layout (or the routing math) changes;
#: stale files are rebuilt.
PLAN_FORMAT_VERSION = 1
#: Most entries the live key -> ring-position memo holds; a pure cache
#: (a miss costs one re-hash), dropped whole when full, so a server
#: under a unique-key stream stays bounded while its engines evict.
POSITION_MEMO_CAP = 1 << 20

#: ``(positions, turns)`` per request: each key's ring position and its
#: replica turn (``None`` at replication 1).
Rows = Tuple[np.ndarray, Optional[np.ndarray]]

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array (wrapping mod 2^64)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hash_keys_u64(keys: Sequence[str], salt: int = 0) -> np.ndarray:
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
    salt_mix = np.uint64(premix_salt(salt))
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
    :class:`Router` -- must agree on how out-of-range values clamp,
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

    The plan also keeps its routing rows (:meth:`routing_rows`), which
    are not part of the file: only ``shard_ids`` is saved.
    """

    __slots__ = (
        "shards",
        "hash_seed",
        "virtual_nodes",
        "replication",
        "shard_ids",
        "_rows",
    )

    def __init__(
        self,
        shards: int,
        hash_seed: int,
        virtual_nodes: int,
        replication: int,
        shard_ids: np.ndarray,
        rows: Optional[Rows] = None,
    ) -> None:
        self.shards = int(shards)
        self.hash_seed = int(hash_seed)
        self.virtual_nodes = int(virtual_nodes)
        self.replication = int(replication)
        self.shard_ids = np.ascontiguousarray(shard_ids, dtype=np.int32)
        self._rows = rows

    def __len__(self) -> int:
        return len(self.shard_ids)

    def routing_rows(self, router: "Router", trace: "CompiledTrace") -> Rows:
        """``(positions, turns)`` per request -- the rows ``shard_ids``
        was gathered from -- derived through ``router`` on first need
        (a plan loaded from disk has none) and kept."""
        if self._rows is None:
            self._rows = router.trace_rows(trace)
        return self._rows

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


class Router:
    """Key -> shard under a live mask and a replica turn (the module
    docstring lists the three steps and the callers).

    The live path is one loop, :meth:`route_keys`: a window's keys in
    request order against one read of the successor table.
    :meth:`route` is its one-key case, so the memo and turn logic is
    written once. It keeps two dicts: a key -> position memo (a cache,
    capped at :data:`POSITION_MEMO_CAP`) and ``spread``, each key's
    request count so far (round-robin *state*: turns never reset when
    the live set changes, like lazy counters over a per-key walk of the
    live ring).
    """

    def __init__(self, ring: "HashRing", replication: int) -> None:
        self.ring = ring
        self.replication = effective_replication(replication, ring.shards)
        self.all_live: Tuple[bool, ...] = (True,) * ring.shards
        self._tokens = np.asarray(ring.token_table()[0], dtype=np.uint64)
        self._successors: Dict[Tuple[bool, ...], np.ndarray] = {}
        self._position_memo: Dict[object, int] = {}
        self.spread: Dict[object, int] = {}

    def positions(self, keys: Sequence[str]) -> np.ndarray:
        """Per key, the ring position its hash bisects to: the row of
        :meth:`successors` its replica set sits in."""
        hashes = hash_keys_u64(keys, salt=self.ring.seed)
        # bisect_right then wrap-to-0 at the end of the ring == mod.
        return np.searchsorted(
            self._tokens, hashes, side="right"
        ) % len(self._tokens)

    def successors(self, mask: Tuple[bool, ...]) -> np.ndarray:
        """Per ring position, the first ``min(replication, alive)``
        distinct owners clockwise that ``mask`` marks live (memoized)."""
        table = self._successors.get(mask)
        if table is None:
            if all(mask):
                rows = self.ring.successor_table(self.replication)
            else:
                rows = self.ring.live_successor_table(self.replication, mask)
            table = np.asarray(rows, dtype=np.int32)
            remember_column(self._successors, mask, table)
        return table

    def gather(
        self,
        positions: np.ndarray,
        turns: Optional[np.ndarray],
        mask: Tuple[bool, ...],
    ) -> np.ndarray:
        """Shard per request: replica ``turns[i]`` (mod the replica
        count) of the set at ``positions[i]``; ``turns`` may be ``None``
        when ``replication == 1``."""
        table = self.successors(mask)
        width = table.shape[1]
        if turns is None or width == 1:
            return table[:, 0][positions]
        return table[positions, turns % width]

    def trace_rows(self, trace: "CompiledTrace") -> Rows:
        """``(positions, turns)`` per request of ``trace``; the turn is
        the key's occurrence index over the whole trace. Both are int32
        (ring positions and a trace's length fit), 8 bytes a request."""
        key_ids = trace.key_ids
        positions = self.positions(trace.key_table).astype(np.int32)[key_ids]
        turns = None
        if self.replication > 1:
            turns = occurrence_index(key_ids).astype(np.int32)
        return positions, turns

    def route(self, key: object, mask: Tuple[bool, ...]) -> int:
        """Shard serving the next request for ``key`` under ``mask``,
        advancing the key's replica turn in ``spread``: the one-key case
        of :meth:`route_keys`."""
        return self.route_keys((key,), mask)[0]

    def route_keys(
        self, keys: Sequence[object], mask: Tuple[bool, ...]
    ) -> List[int]:
        """Per key, in order, the shard serving its next request under
        ``mask`` -- exactly what calling :meth:`route` once per key
        would return, with the successor table read once for all of
        them. A key's ring position comes from the memo (hashed on a
        miss; the memo is dropped whole at
        :data:`POSITION_MEMO_CAP`), and at ``replication > 1`` each
        request takes the key's next turn from ``spread``."""
        table = self.successors(mask)
        item = table.item
        width = table.shape[1]
        spread = self.spread if self.replication > 1 else None
        memo = self._position_memo
        position_for = self.ring.position_for
        shards: List[int] = []
        for key in keys:
            position = memo.get(key)
            if position is None:
                position = position_for(key)
                if len(memo) >= POSITION_MEMO_CAP:
                    memo.clear()
                memo[key] = position
            if spread is None:
                shards.append(item(position, 0))
            else:
                turn = spread.get(key, 0)
                spread[key] = turn + 1
                shards.append(item(position, turn % width))
        return shards


class TraceColumns:
    """One compiled trace's full-length shard column per live mask.

    The all-live column *is* the routing plan's own ``shard_ids`` array;
    any other mask costs one :meth:`Router.gather` over the plan's
    routing rows (:meth:`RoutingPlan.routing_rows`). Memoized through
    :func:`remember_column`.
    """

    def __init__(
        self, router: Router, trace: "CompiledTrace", plan: RoutingPlan
    ) -> None:
        self._router = router
        self._trace = trace
        self._plan = plan
        self._columns = {router.all_live: plan.shard_ids}

    def shard_ids(self, mask: Tuple[bool, ...]) -> np.ndarray:
        column = self._columns.get(mask)
        if column is None:
            rows = self._plan.routing_rows(self._router, self._trace)
            column = self._router.gather(*rows, mask)
            remember_column(self._columns, mask, column)
        return column


def build_routing_plan(
    trace: "CompiledTrace", ring: "HashRing", replication: int = 1
) -> RoutingPlan:
    """Route every request of a compiled trace through ``ring`` at once.

    Bit-identical to walking the ring for each request's replica set
    (``tests/cluster/reference.py::shards_for``) with lazy per-key
    round-robin counters starting at 0 (what one
    ``Cluster.replay_compiled`` call does): the replica turn is the key's
    occurrence index in this trace.
    """
    if replication < 1:
        raise ConfigurationError(
            f"replication must be >= 1, got {replication}"
        )
    router = Router(ring, replication)
    rows = router.trace_rows(trace)
    return RoutingPlan(
        ring.shards,
        ring.seed,
        ring.virtual_nodes,
        router.replication,
        router.gather(*rows, router.all_live),
        rows,
    )


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
