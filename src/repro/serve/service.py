"""Protocol commands -> cluster requests: the serving data plane.

A :class:`CacheService` owns the translation between wire commands and
the simulator's object API. :meth:`execute` is the only way in: every
command of a drained queue batch -- across connections -- flattens into
one :meth:`repro.cluster.Cluster.process_batch` call, so live serving
rides the same router, engines and window driver as offline replay
(the batch walks its rows; a trace goes through the replay kernel).
Control commands answer after the batch's data-plane rows, so a
``stats`` mid-batch already counts the commands queued behind it.

The simulator models sizes, not payloads, so the service keeps a small
real value store on the side: SETs remember their bytes, GETs serve
them back on a physical hit, and keys the engines filled on a GET miss
(the trace-replay convention) serve a deterministic synthesized payload
of the remembered size. A GET whose engine outcome is a miss returns no
VALUE block even though the engine filled the key -- wire semantics
stay memcached's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.stats import OP_CODES, OUTCOME_HIT
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
        #: ``stats`` wire command can surface server counters (shed,
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
        poison the commands batched alongside it."""
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
        row = self.cluster.geometry.row
        for index, command in enumerate(commands):
            if command.op == "set":
                key = command.keys[0]
                try:
                    row(len(key), len(command.data))
                except CacheError:
                    preset[index] = server_error("object too large for cache")
                    continue
                keys.append(key)
                ops.append(OP_CODES["set"])
                sizes.append(len(command.data))
                apps.append(self.app_of_key(key))
                owners.append(index)
                resized[key] = len(command.data)
            elif command.op == "get":
                for key in command.keys:
                    keys.append(key)
                    ops.append(OP_CODES["get"])
                    sizes.append(self._fill_size(key, resized))
                    apps.append(self.app_of_key(key))
                    owners.append(index)
            elif command.op == "delete":
                key = command.keys[0]
                keys.append(key)
                ops.append(OP_CODES["delete"])
                sizes.append(self._fill_size(key, resized))
                apps.append(self.app_of_key(key))
                owners.append(index)
                resized[key] = DEFAULT_VALUE_SIZE
        return keys, ops, sizes, apps, owners, preset

    def _fill_size(self, key: str, resized: Dict[str, int]) -> int:
        size = resized.get(key)
        if size is not None:
            return size
        remembered = self._values.get(key)
        return remembered[2] if remembered else DEFAULT_VALUE_SIZE

    # ------------------------------------------------------------------

    def execute(self, commands: Sequence[Command]) -> List[bytes]:
        """One response per command; data-plane rows ride a single
        :meth:`~repro.cluster.Cluster.process_batch` call."""
        keys, ops, sizes, apps, owners, preset = self._rows(commands)
        if keys:
            try:
                codes = self.cluster.process_batch(keys, ops, sizes, apps).tolist()
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
        responses: List[bytearray] = [bytearray() for _ in commands]
        for row, (key, code) in enumerate(zip(keys, codes)):
            command = commands[owners[row]]
            out = responses[owners[row]]
            hit = code & OUTCOME_HIT
            if command.op == "set":
                self._values[key] = (
                    command.flags,
                    command.data,
                    len(command.data),
                )
                out += STORED
            elif command.op == "get":
                if hit:
                    flags, payload, size = self._values.get(
                        key, (0, None, DEFAULT_VALUE_SIZE)
                    )
                    if payload is None:
                        payload = synthesize_value(key, size)
                    out += encode_value(key, flags, payload)
            elif command.op == "delete":
                self._values.pop(key, None)
                out += DELETED if hit else NOT_FOUND
        rendered: List[bytes] = []
        for index, (command, out) in enumerate(zip(commands, responses)):
            if index in preset:
                rendered.append(preset[index])
            elif command.op == "get":
                out += END
                rendered.append(bytes(out))
            elif command.op in ("set", "delete"):
                rendered.append(bytes(out))
            else:
                rendered.append(self._control(command))
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
                    ("server_shed", metrics.shed),
                    ("server_shed_expired", metrics.shed_expired),
                    ("server_shed_inflight", metrics.shed_inflight),
                    ("server_batches", metrics.batches),
                    (
                        "queue_depth_high_water",
                        metrics.queue_depth_high_water,
                    ),
                ]
            )
        return pairs
