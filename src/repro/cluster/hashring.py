"""Consistent-hash key routing across cache-server shards.

A :class:`HashRing` places ``virtual_nodes`` tokens per shard on a
64-bit ring (tokens come from :func:`repro.common.hashing.stable_hash_u64`,
so placement is deterministic across processes and independent of
``PYTHONHASHSEED``); a key is owned by the shard whose token follows the
key's hash clockwise. The classic consistent-hashing property follows:
growing an ``N``-shard ring to ``N+1`` shards leaves every existing
shard's tokens in place, so only the keys captured by the new shard's
tokens -- ``~1/(N+1)`` of the key space -- change owners.

Replica sets (:meth:`HashRing.shards_for`) are the next *distinct*
shards clockwise of the key, the standard successor-list placement.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.hashing import stable_hash_u64


class HashRing:
    """A consistent-hash ring over ``shards`` cache servers.

    Args:
        shards: Number of shards (>= 1).
        seed: Salt folded into every token and key hash, so two rings
            with different seeds partition the key space independently.
        virtual_nodes: Tokens per shard; more tokens smooth the
            per-shard share of the key space (64 keeps the max/mean
            spread within a few percent).
    """

    def __init__(
        self, shards: int, seed: int = 0, virtual_nodes: int = 64
    ) -> None:
        if shards < 1:
            raise ConfigurationError(f"need at least one shard, got {shards}")
        if virtual_nodes < 1:
            raise ConfigurationError(
                f"virtual_nodes must be >= 1, got {virtual_nodes}"
            )
        self.shards = shards
        self.seed = seed
        self.virtual_nodes = virtual_nodes
        points = []
        for shard in range(shards):
            for vnode in range(virtual_nodes):
                token = stable_hash_u64(
                    f"shard{shard:06d}:vnode{vnode:06d}", salt=seed
                )
                points.append((token, shard))
        points.sort()
        self._tokens = [token for token, _ in points]
        self._owners = [shard for _, shard in points]

    # ------------------------------------------------------------------

    def position_for(self, key: object) -> int:
        """The ring position ``key``'s hash bisects to.

        An index into the rows of :meth:`token_table` /
        :meth:`successor_table` / :meth:`live_successor_table`, so
        callers that route many keys can hash each key once and reuse
        the precomputed tables across live sets.
        """
        token = stable_hash_u64(key, salt=self.seed)
        return bisect_right(self._tokens, token) % len(self._tokens)

    def shard_for(self, key: object) -> int:
        """The shard owning ``key`` (its primary)."""
        return self._owners[self.position_for(key)]

    def shards_for(self, key: object, count: int) -> List[int]:
        """The first ``count`` distinct shards clockwise of ``key``.

        Index 0 is the primary (== :meth:`shard_for`); ``count`` is
        clamped to the shard total.
        """
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        return self._distinct_owners_from(
            self.position_for(key), min(count, self.shards)
        )

    def _distinct_owners_from(
        self, start: int, count: int, live: Optional[Sequence[bool]] = None
    ) -> List[int]:
        """The first ``count`` distinct (``live``, if given) owners
        walking clockwise from ring position ``start`` -- the one
        replica-placement walk behind the per-key oracles
        (:meth:`shards_for`, :meth:`shards_for_live`) and the bulk table
        (:meth:`successor_table`), so they can never diverge."""
        total = len(self._tokens)
        replicas: List[int] = []
        for step in range(total):
            owner = self._owners[(start + step) % total]
            if owner not in replicas and (live is None or live[owner]):
                replicas.append(owner)
                if len(replicas) == count:
                    break
        return replicas

    def _live_count(self, count: int, live: Sequence[bool]) -> int:
        """``count`` clamped to the live-shard total (validated)."""
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        alive = sum(1 for flag in live if flag)
        if alive == 0:
            raise ConfigurationError(
                "no live shards on the ring; a fault schedule must never "
                "crash every shard at once"
            )
        return min(count, alive)

    def shards_for_live(
        self, key: object, count: int, live: Sequence[bool]
    ) -> List[int]:
        """The first ``count`` distinct *live* shards clockwise of ``key``.

        The failover walk: a key whose successors are crashed simply
        keeps walking the ring, so its requests land on the next live
        shard(s) -- and when the dead shard restarts, the same walk
        routes the key straight back. ``count`` is clamped to the number
        of live shards; with every shard live this equals
        :meth:`shards_for`.
        """
        return self._distinct_owners_from(
            self.position_for(key), self._live_count(count, live), live
        )

    def live_successor_table(
        self, count: int, live: Sequence[bool]
    ) -> List[List[int]]:
        """Per ring position, the first ``count`` distinct *live* owners
        clockwise -- :meth:`successor_table` with crashed shards masked
        out, the bulk-routing backbone of the failover replay.

        Derived by filtering the full successor order (every shard owns
        at least one token, so the full distinct-owner walk always lists
        all shards): dropping dead owners from the full order is exactly
        what the clockwise walk skipping dead tokens would produce.
        ``count`` is clamped to the live-shard total.
        """
        if len(live) != self.shards:
            raise ConfigurationError(
                f"live mask covers {len(live)} shard(s); ring has "
                f"{self.shards}"
            )
        count = self._live_count(count, live)
        return [
            [owner for owner in full if live[owner]][:count]
            for full in self.successor_table(self.shards)
        ]

    def token_table(self) -> Tuple[List[int], List[int]]:
        """The ring's sorted ``(tokens, owners)`` columns.

        The backing columns for bulk routing
        (:mod:`repro.cluster.routing`): a key whose hash bisects to
        position ``p`` (``bisect_right`` then wrap to 0) is owned by
        ``owners[p]``. Treat both lists as read-only.
        """
        return self._tokens, self._owners

    def successor_table(self, count: int) -> List[List[int]]:
        """Per ring position, the first ``count`` distinct owners
        clockwise -- the replica set of every key bisecting there.

        ``successor_table(c)[p]`` equals :meth:`shards_for` for any key
        hashing to position ``p``; precomputing it once per ring turns
        the per-key clockwise walk into a table lookup.
        """
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        count = min(count, self.shards)
        return [
            self._distinct_owners_from(start, count)
            for start in range(len(self._tokens))
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HashRing(shards={self.shards}, seed={self.seed}, "
            f"virtual_nodes={self.virtual_nodes})"
        )
