"""Protocol commands -> cluster requests: the serving data plane.

A :class:`CacheService` owns the translation between wire commands and
the simulator's object API. :meth:`execute` is the only way in: every
command of a drained queue batch -- across connections -- flattens into
one :meth:`repro.cluster.Cluster.process_batch` call, so live serving
rides the same router, engines and window driver as offline replay
(the batch walks its rows; a trace goes through the replay kernel).
Control commands answer after the batch's data-plane rows, so a
``stats`` mid-batch already counts the commands queued behind it.
Flattening the commands into rows makes no call per row: a key's
tenant comes from its ``app:`` prefix inline (only keys bound for the
catch-all app call :meth:`CacheService.app_of_key`), its fill size from
the batch's own earlier rows or the value store, and a SET too large
for the largest slab chunk is answered before the cluster sees it, by
the item-size rule of :class:`~repro.cache.slabs.SlabGeometry`.

The simulator models sizes, not payloads, so the service keeps a real
value store on the side: SETs remember their bytes, GETs serve them
back on a physical hit, and keys the engines filled on a GET miss (the
trace-replay convention) serve a deterministic synthesized payload of
the remembered size. A GET whose engine outcome is a miss returns no
VALUE block even though the engine filled the key -- wire semantics
stay memcached's.

The store is not small: it keeps every SET payload until a DELETE,
whatever the engines evicted. It cannot simply drop evicted keys: a
key that is evicted and then filled again on a GET miss must still
serve its last SET bytes (the ledger's wire check requires exactly
that), so bounding the store needs a decision about fill-on-miss in
live serving first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.stats import OP_CODES, OP_GET, OP_SET, OUTCOME_HIT
from repro.common.constants import ITEM_OVERHEAD_BYTES
from repro.common.errors import CacheError, ConfigurationError
from repro.serve.protocol import (
    DELETED,
    END,
    NOT_FOUND,
    STORED,
    Command,
    encode_stats,
    encode_value,
    server_error,
)

#: Engine fill size for GETs of keys never SET through the wire.
DEFAULT_VALUE_SIZE = 100

#: Tenant for keys whose ``app:`` prefix names no registered app.
DEFAULT_APP = "serve"

#: Cluster-wide budget :data:`DEFAULT_APP` is registered with.
DEFAULT_BUDGET_BYTES = 16 * (1 << 20)

#: What a GET hit on a key with nothing in the value store serves from:
#: a synthesized payload of :data:`DEFAULT_VALUE_SIZE`.
_UNKNOWN: Tuple[int, Optional[bytes], int] = (0, None, DEFAULT_VALUE_SIZE)


def synthesize_value(key: str, size: int) -> bytes:
    """Deterministic value bytes, the key repeated to ``size``: what an
    engine-resident key with no stored bytes (filled on a GET miss)
    serves, and what the load generator's SETs carry."""
    if size <= 0:
        return b""
    pattern = (key.encode("utf-8", "replace") or b"x") + b"."
    repeats = size // len(pattern) + 1
    return (pattern * repeats)[:size]


class CacheService:
    """Executes parsed commands against a :class:`~repro.cluster.Cluster`.

    ``app_of_key`` routes each key to a tenant: by default the key's
    ``app:`` prefix when it names a registered app (the synthetic
    workloads' key shape), else :data:`DEFAULT_APP` -- which is
    registered on demand if the cluster does not know it yet.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self._apps = set(cluster.servers[0].engines)
        #: key -> (flags, payload or None-for-synthesized, value_size)
        self._values: Dict[str, Tuple[int, Optional[bytes], int]] = {}
        #: Set by :class:`~repro.serve.server.CacheServerProcess` so the
        #: ``stats`` wire command can surface server counters (requests,
        #: queue-depth high water) next to the cache totals.
        self.server_metrics = None

    # ------------------------------------------------------------------

    def app_of_key(self, key: str) -> str:
        prefix, _, rest = key.partition(":")
        if rest and prefix in self._apps:
            return prefix
        if DEFAULT_APP not in self._apps:
            # Registered lazily: trace-driven serving (every key carries
            # a registered app prefix) never creates the catch-all app,
            # so its budget cannot distort per-tenant accounting or soak
            # up rebalance credits.
            from repro.cache.engines import FirstComeFirstServeEngine

            geometry = self.cluster.geometry
            self.cluster.add_app(
                DEFAULT_APP,
                DEFAULT_BUDGET_BYTES,
                lambda shard, share: FirstComeFirstServeEngine(
                    DEFAULT_APP, share, geometry
                ),
            )
            self._apps.add(DEFAULT_APP)
        return DEFAULT_APP

    def _rows(
        self, commands: Sequence[Command]
    ) -> Tuple[
        List[str], List[int], List[int], List[str], List[int],
        Dict[int, bytes],
    ]:
        """Flatten commands into parallel request columns (one row per
        key; a multi-get contributes one row per key). ``preset`` maps
        command indices answered without touching the cluster -- e.g. a
        SET whose item exceeds the largest slab chunk, which must not
        poison the commands batched alongside it.

        One pass, no call per row: a key's tenant is its ``app:`` prefix
        when that names a registered app (only other keys go through
        :meth:`app_of_key`), and a GET or DELETE row is sized from what
        the batch's own earlier rows left behind, else the value store,
        else :data:`DEFAULT_VALUE_SIZE`."""
        keys: List[str] = []
        ops: List[int] = []
        sizes: List[int] = []
        apps: List[str] = []
        owners: List[int] = []  # row -> command index
        preset: Dict[int, bytes] = {}
        # Sizes this batch's own SETs and DELETEs leave behind: a later
        # row for the same key must be sized as if they had already run,
        # or where a wake cuts the stream would show in the counters.
        resized: Dict[str, int] = {}
        values = self._values
        registered = self._apps
        largest = self.cluster.geometry.chunk_sizes[-1] - ITEM_OVERHEAD_BYTES
        for index, command in enumerate(commands):
            op = command.op
            if op == "set":
                key = command.keys[0]
                size = len(command.data)
                if len(key) + size > largest:
                    preset[index] = server_error("object too large for cache")
                    continue
                resized[key] = size
            elif op != "get" and op != "delete":
                continue
            code = OP_CODES[op]
            for key in command.keys:
                if op != "set":
                    size = resized.get(key, -1)
                    if size < 0:
                        remembered = values.get(key)
                        size = remembered[2] if remembered else DEFAULT_VALUE_SIZE
                prefix, _, rest = key.partition(":")
                keys.append(key)
                ops.append(code)
                sizes.append(size)
                apps.append(
                    prefix if rest and prefix in registered
                    else self.app_of_key(key)
                )
                owners.append(index)
            if op == "delete":
                resized[key] = DEFAULT_VALUE_SIZE
        return keys, ops, sizes, apps, owners, preset

    # ------------------------------------------------------------------

    def execute(self, commands: Sequence[Command]) -> List[bytes]:
        """One response per command; data-plane rows ride a single
        :meth:`~repro.cluster.Cluster.process_batch` call."""
        keys, ops, sizes, apps, owners, preset = self._rows(commands)
        if keys:
            try:
                codes = self.cluster.process_batch(keys, ops, sizes, apps)
            except (CacheError, ConfigurationError) as exc:
                failure = server_error(str(exc))
                return [
                    failure if command.op in ("get", "set", "delete")
                    else self._control(command)
                    for command in commands
                ]
        else:
            codes = []
        return self._render(commands, keys, ops, owners, codes, preset)

    # ------------------------------------------------------------------

    def _render(
        self,
        commands: Sequence[Command],
        keys: List[str],
        ops: List[int],
        owners: List[int],
        codes: List[int],
        preset: Dict[int, bytes],
    ) -> List[bytes]:
        """One response per command from its rows' outcome codes; a
        GET's ``VALUE`` blocks are joined once, with its ``END``."""
        values = self._values
        rendered: List[bytes] = [b""] * len(commands)
        blocks: Dict[int, List[bytes]] = {}  # GET command -> VALUE blocks
        for key, op, index, code in zip(keys, ops, owners, codes):
            if op == OP_GET:
                if code & OUTCOME_HIT:
                    flags, payload, size = values.get(key, _UNKNOWN)
                    if payload is None:
                        payload = synthesize_value(key, size)
                    block = encode_value(key, flags, payload)
                    found = blocks.get(index)
                    if found is None:
                        blocks[index] = [block]
                    else:
                        found.append(block)
            elif op == OP_SET:
                command = commands[index]
                values[key] = (command.flags, command.data, len(command.data))
                rendered[index] = STORED
            else:
                values.pop(key, None)
                rendered[index] = DELETED if code & OUTCOME_HIT else NOT_FOUND
        for index, command in enumerate(commands):
            op = command.op
            if op == "get":
                found = blocks.get(index)
                rendered[index] = END if found is None else b"".join([*found, END])
            elif op != "set" and op != "delete":
                rendered[index] = self._control(command)
        for index, response in preset.items():
            rendered[index] = response
        return rendered

    def _control(self, command: Command) -> bytes:
        if command.op == "stats":
            return encode_stats(self.stats_pairs())
        return b""  # quit: the connection layer closes

    def stats_pairs(self) -> List[Tuple[str, object]]:
        stats = self.cluster.aggregate_stats()
        total = stats.total
        pairs: List[Tuple[str, object]] = [
            ("cmd_get", total.gets),
            ("cmd_set", total.sets),
            ("get_hits", total.get_hits),
            ("get_misses", total.get_misses),
            ("hit_rate", f"{total.hit_rate():.4f}"),
            ("evictions", total.evictions),
            ("shards", len(self.cluster.servers)),
            ("live_shards", sum(1 for f in self.cluster.live_mask() if f)),
            ("dead_requests", total.dead_requests),
            ("curr_items_bytes", int(self.cluster.memory_in_use())),
        ]
        metrics = self.server_metrics
        if metrics is not None:
            pairs.extend(
                [
                    ("server_requests", metrics.requests),
                    # The server refuses nothing for load, so this is
                    # always 0. Its reader is the ledger's wire check,
                    # benchmarks/ledger/serving.py:217 (check_totals),
                    # which fails a run without it.
                    ("server_shed", 0),
                    ("server_batches", metrics.batches),
                    (
                        "queue_depth_high_water",
                        metrics.queue_depth_high_water,
                    ),
                ]
            )
        return pairs
