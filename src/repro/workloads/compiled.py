"""Compiled traces: struct-of-arrays request streams plus a trace cache.

Replaying a trace of :class:`~repro.workloads.trace.Request` objects pays
Python's worst per-request taxes: a frozen-dataclass construction with
``__post_init__`` validation, a slab classification, and (for generated
traces) the whole generator pipeline re-run on every experiment. A
:class:`CompiledTrace` pays all of those costs exactly once, at
*compile* time:

* keys and app names are interned (every request holds a reference to a
  shared string, plus an integer id for serialization);
* ops become integer codes (:data:`repro.cache.stats.OP_GET` etc.);
* the slab class, chunk size and item byte size of every request are
  precomputed in one :meth:`~repro.cache.slabs.SlabGeometry.rows` call,
  so the replay loop never classifies;
* validation (unknown op, negative size, oversized item) is hoisted out of
  the replay loop entirely -- a compiled trace is valid by construction.

The resulting arrays feed :meth:`repro.cache.server.CacheServer.
replay_compiled` and the profiler fast paths. :class:`TraceCache` stores
compiled traces on disk (``.npz``) and in process memory so the ~17
experiment runners stop regenerating identical Memcachier/Zipf traces from
scratch.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.cache.slabs import SlabGeometry
from repro.cache.stats import OP_CODES, OP_NAMES
from repro.common.constants import DEFAULT_PLAN_CACHE_ENTRIES
from repro.common.errors import TraceFormatError
from repro.workloads.trace import Request

#: Bump when the on-disk layout changes; stale files are recompiled.
_DISK_FORMAT_VERSION = 1


def save_npz_atomic(path: Union[str, Path], payload: Dict[str, np.ndarray]) -> Path:
    """Write an ``.npz`` atomically (tmp file + rename), creating parents.

    Shared by compiled traces and routing plans so concurrent sweep
    workers never observe a half-written cache file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


class CompiledTrace:
    """A validated, struct-of-arrays representation of one trace.

    All per-request columns are plain Python lists (fastest to index from
    the interpreter loop); ``keys`` holds interned string references so the
    replay path passes the exact same key objects the uncompiled replay
    would, byte for byte.
    """

    __slots__ = (
        "geometry",
        "times",
        "app_ids",
        "app_table",
        "key_ids",
        "key_table",
        "keys",
        "op_codes",
        "value_sizes",
        "key_sizes",
        "slab_classes",
        "chunk_bytes",
        "item_bytes",
        "_routing_digest",
        "_replay_columns",
    )

    def __init__(
        self,
        geometry: SlabGeometry,
        times: List[float],
        app_ids: List[int],
        app_table: List[str],
        key_ids: List[int],
        key_table: List[str],
        op_codes: List[int],
        value_sizes: List[int],
        key_sizes: List[int],
    ) -> None:
        self.geometry = geometry
        self.times = times
        self.app_ids = app_ids
        self.app_table = app_table
        self.key_ids = key_ids
        self.key_table = key_table
        self.op_codes = op_codes
        self.value_sizes = value_sizes
        self.key_sizes = key_sizes
        # Derived hot columns.
        self.keys = [key_table[i] for i in key_ids]
        classes, _, items = geometry.rows(
            np.asarray(key_sizes, dtype=np.int64),
            np.asarray(value_sizes, dtype=np.int64),
        )
        self.slab_classes = classes.tolist()
        self.item_bytes = items.tolist()
        # Looked up, not ``.tolist()``-ed: every request then shares the
        # ladder's own int objects instead of allocating one per row.
        chunk_of = geometry.chunk_sizes
        self.chunk_bytes = [chunk_of[c] for c in self.slab_classes]
        self._routing_digest: Optional[str] = None
        self._replay_columns = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def compile(
        cls,
        requests: Iterable[Request],
        geometry: Optional[SlabGeometry] = None,
    ) -> "CompiledTrace":
        """Compile any request iterable, validating each record once."""
        geometry = geometry or SlabGeometry.default()
        times: List[float] = []
        app_ids: List[int] = []
        app_index: Dict[str, int] = {}
        app_table: List[str] = []
        key_ids: List[int] = []
        key_index: Dict[str, int] = {}
        key_table: List[str] = []
        op_codes: List[int] = []
        value_sizes: List[int] = []
        key_sizes: List[int] = []
        for request in requests:
            op = OP_CODES.get(request.op)
            if op is None:
                raise TraceFormatError(f"unknown op {request.op!r}")
            if request.value_size < 0:
                raise TraceFormatError(
                    f"value_size must be >= 0, got {request.value_size}"
                )
            app_id = app_index.get(request.app)
            if app_id is None:
                app_id = app_index[request.app] = len(app_table)
                app_table.append(request.app)
            key = request.key
            key_id = key_index.get(key)
            if key_id is None:
                key_id = key_index[key] = len(key_table)
                key_table.append(key)
            key_size = (
                request.key_size if request.key_size >= 0 else len(key)
            )
            times.append(request.time)
            app_ids.append(app_id)
            key_ids.append(key_id)
            op_codes.append(op)
            value_sizes.append(request.value_size)
            key_sizes.append(key_size)
        return cls(
            geometry,
            times,
            app_ids,
            app_table,
            key_ids,
            key_table,
            op_codes,
            value_sizes,
            key_sizes,
        )

    # ------------------------------------------------------------------
    # Introspection / adapters
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.key_ids)

    @property
    def app_names(self) -> List[str]:
        return list(self.app_table)

    def replay_columns(self):
        """Numpy mirrors of the five replay-hot columns, built lazily.

        ``(keys, op_codes, slab_classes, chunk_bytes, item_bytes)`` --
        keys as an object array (holding the same interned string
        references), the rest as integer arrays. The partitioned cluster
        replay gathers per-(shard, app) runs out of these with C-speed
        fancy indexing instead of Python-level list comprehensions;
        built once per trace instance and reused by every replay.
        """
        if self._replay_columns is None:
            self._replay_columns = (
                np.asarray(self.keys, dtype=object),
                np.asarray(self.op_codes, dtype=np.int8),
                np.asarray(self.slab_classes, dtype=np.int16),
                np.asarray(self.chunk_bytes, dtype=np.int64),
                np.asarray(self.item_bytes, dtype=np.int64),
            )
        return self._replay_columns

    def routing_digest(self) -> str:
        """128-bit digest of the routed key sequence.

        Covers exactly what cluster routing depends on -- the key string
        at every request position (key table + key-id column) -- and
        nothing else, so the same stream replayed under different
        budgets/schemes shares one cached
        :class:`~repro.cluster.routing.RoutingPlan`. Computed once per
        trace instance.
        """
        if self._routing_digest is None:
            digest = hashlib.sha256()
            digest.update(len(self.key_table).to_bytes(8, "little"))
            encoded = [key.encode("utf-8") for key in self.key_table]
            # Length-prefix the table so key boundaries are unambiguous
            # (a plain join could collide on keys containing the
            # separator).
            digest.update(
                np.fromiter(
                    (len(blob) for blob in encoded),
                    dtype=np.int64,
                    count=len(encoded),
                ).tobytes()
            )
            digest.update(b"".join(encoded))
            digest.update(
                np.asarray(self.key_ids, dtype=np.int64).tobytes()
            )
            self._routing_digest = digest.hexdigest()[:32]
        return self._routing_digest

    def iter_requests(self) -> Iterator[Request]:
        """Re-expand into :class:`Request` objects (compat adapter)."""
        op_names = OP_NAMES
        for i in range(len(self.key_ids)):
            yield Request(
                time=self.times[i],
                app=self.app_table[self.app_ids[i]],
                key=self.keys[i],
                op=op_names[self.op_codes[i]],
                value_size=self.value_sizes[i],
                key_size=self.key_sizes[i],
            )

    def select_apps(self, apps: Iterable[str]) -> "CompiledTrace":
        """Subtrace containing only ``apps``, in original order.

        Because the merged trace is a stable interleaving of per-app
        streams, the filtered subsequence is exactly the merge of the
        chosen apps' streams.
        """
        wanted = set(apps)
        chosen = {
            app_id
            for app_id, name in enumerate(self.app_table)
            if name in wanted
        }
        indices = [
            i for i, app_id in enumerate(self.app_ids) if app_id in chosen
        ]
        return self._subset(indices)

    def for_app(self, app: str) -> "CompiledTrace":
        return self.select_apps([app])

    def slice(self, start: int, stop: Optional[int] = None) -> "CompiledTrace":
        """Contiguous sub-trace (e.g. warmup/measure splits)."""
        n = len(self)
        stop = n if stop is None else min(stop, n)
        return self._subset(range(min(start, stop), stop))

    def with_op(self, op: str) -> "CompiledTrace":
        """Copy with every request's op replaced (micro-benchmark splits).

        Slab classes are size-derived, so they are unaffected.
        """
        code = OP_CODES[op]
        clone = self._subset(range(len(self)))
        clone.op_codes = [code] * len(self)
        return clone

    def _subset(self, indices) -> "CompiledTrace":
        """Sub-trace at ``indices`` (ascending), bypassing ``__init__``.

        The derived hot columns (``keys``, ``chunk_bytes``,
        ``item_bytes``) are picked directly instead of being recomputed,
        and the app/key tables are *shared* with the parent (they are
        treated as immutable everywhere), keeping ``select_apps`` /
        ``slice`` subsetting cheap.
        """
        pick = indices
        clone = CompiledTrace.__new__(CompiledTrace)
        clone.geometry = self.geometry
        clone.times = [self.times[i] for i in pick]
        clone.app_ids = [self.app_ids[i] for i in pick]
        clone.app_table = self.app_table
        clone.key_ids = [self.key_ids[i] for i in pick]
        clone.key_table = self.key_table
        clone.op_codes = [self.op_codes[i] for i in pick]
        clone.value_sizes = [self.value_sizes[i] for i in pick]
        clone.key_sizes = [self.key_sizes[i] for i in pick]
        clone.slab_classes = [self.slab_classes[i] for i in pick]
        clone.keys = [self.keys[i] for i in pick]
        clone.chunk_bytes = [self.chunk_bytes[i] for i in pick]
        clone.item_bytes = [self.item_bytes[i] for i in pick]
        clone._routing_digest = None
        clone._replay_columns = None
        return clone

    # ------------------------------------------------------------------
    # Disk format
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Serialize to ``.npz``. Written atomically (tmp file + rename)."""
        payload = {
            "version": np.array([_DISK_FORMAT_VERSION]),
            "chunk_sizes": np.array(self.geometry.chunk_sizes, dtype=np.int64),
            "times": np.array(self.times, dtype=np.float64),
            "app_ids": np.array(self.app_ids, dtype=np.int32),
            "app_table": np.array(self.app_table, dtype=np.str_),
            "key_ids": np.array(self.key_ids, dtype=np.int64),
            "key_table": np.array(self.key_table, dtype=np.str_),
            "op_codes": np.array(self.op_codes, dtype=np.int8),
            "value_sizes": np.array(self.value_sizes, dtype=np.int64),
            "key_sizes": np.array(self.key_sizes, dtype=np.int64),
        }
        return save_npz_atomic(path, payload)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CompiledTrace":
        with np.load(path, allow_pickle=False) as data:
            if int(data["version"][0]) != _DISK_FORMAT_VERSION:
                raise TraceFormatError(
                    f"{path}: unsupported compiled-trace version"
                )
            geometry = SlabGeometry(
                tuple(int(c) for c in data["chunk_sizes"])
            )
            return cls(
                geometry,
                data["times"].tolist(),
                data["app_ids"].tolist(),
                data["app_table"].tolist(),
                data["key_ids"].tolist(),
                data["key_table"].tolist(),
                data["op_codes"].tolist(),
                data["value_sizes"].tolist(),
                data["key_sizes"].tolist(),
            )


# ---------------------------------------------------------------------------
# Trace cache (in-process LRU + on-disk .npz store)
# ---------------------------------------------------------------------------


def _default_cache_dir() -> Optional[Path]:
    configured = os.environ.get("REPRO_TRACE_CACHE")
    if configured is not None:
        if configured.strip().lower() in ("", "0", "off", "none"):
            return None
        return Path(configured)
    return Path.home() / ".cache" / "cliffhanger-repro" / "traces"


class TraceCache:
    """Two-level cache of compiled traces keyed by a descriptive string.

    Level 1 is a bounded in-process LRU (compiled traces are large; a
    handful covers one experiment run). Level 2 is a directory of ``.npz``
    files shared between processes and runs; set ``REPRO_TRACE_CACHE=off``
    to disable it (e.g. for hermetic tests).

    The same two levels also store
    :class:`~repro.cluster.routing.RoutingPlan` columns
    (:meth:`get_or_build_plan`): plans are derived per (trace, ring)
    pair, far smaller than traces, and reused by every scenario of a
    sweep that shares the pair. With the on-disk level off, plans still
    cache in process memory.
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        memory_entries: int = 4,
        plan_entries: int = DEFAULT_PLAN_CACHE_ENTRIES,
    ) -> None:
        self.directory = Path(directory) if directory else _default_cache_dir()
        self.memory_entries = memory_entries
        self.plan_entries = plan_entries
        self._memory: "OrderedDict[str, CompiledTrace]" = OrderedDict()
        self._plan_memory: "OrderedDict[str, object]" = OrderedDict()

    def _path_for(self, key: str, suffix: str) -> Optional[Path]:
        if self.directory is None:
            return None
        safe = "".join(
            ch if ch.isalnum() or ch in "._-" else "_" for ch in key
        )
        return self.directory / f"{safe}.v{_DISK_FORMAT_VERSION}.{suffix}"

    def get_or_compile(
        self,
        key: str,
        factory: Callable[[], Iterable[Request]],
        geometry: Optional[SlabGeometry] = None,
    ) -> CompiledTrace:
        """Return the compiled trace for ``key``, compiling on first use.

        ``key`` must encode every parameter the factory depends on
        (scale, seed, app subset, ...); the geometry is appended here so
        the same stream compiled under two slab ladders can never
        collide. Changing the *code* of a generator warrants a
        :data:`_DISK_FORMAT_VERSION` bump, which invalidates the whole
        on-disk store.
        """
        geometry_tag = "x".join(
            str(c) for c in (geometry or SlabGeometry.default()).chunk_sizes
        )
        key = f"{key}-geo{zlib.crc32(geometry_tag.encode('ascii')):08x}"
        return self._get_or_build(
            key,
            self._memory,
            self.memory_entries,
            "npz",
            CompiledTrace.load,
            lambda: CompiledTrace.compile(factory(), geometry),
        )

    def get_or_build_plan(self, key: str, factory):
        """Return the :class:`~repro.cluster.routing.RoutingPlan` cached
        under ``key``, building (and persisting) it on first use.

        ``key`` must encode everything the plan depends on -- the
        trace's routing digest plus every ring/replication parameter
        (see :func:`repro.cluster.routing.plan_cache_key`).
        """
        from repro.cluster.routing import RoutingPlan

        return self._get_or_build(
            key,
            self._plan_memory,
            self.plan_entries,
            "plan.npz",
            RoutingPlan.load,
            factory,
        )

    def store_plan(self, key: str, plan) -> None:
        """Put ``plan`` in both cache levels under ``key``, overwriting
        whatever is there (also the self-heal path for stale or corrupt
        disk entries detected by the caller)."""
        self._store(
            key, plan, self._plan_memory, self.plan_entries, "plan.npz"
        )

    def _get_or_build(self, key, memory, bound, suffix, load, build):
        """The walk traces and plans share: the memory LRU, then the
        file (one that fails to load is rebuilt over), then ``build``,
        whose result goes to both levels."""
        cached = memory.get(key)
        if cached is not None:
            memory.move_to_end(key)
            return cached
        path = self._path_for(key, suffix)
        if path is not None and path.exists():
            try:
                value = load(path)
            except Exception:
                pass  # corrupt/stale: fall through to rebuild
            else:
                self._remember(key, value, memory, bound)
                return value
        value = build()
        self._store(key, value, memory, bound, suffix)
        return value

    def _store(self, key, value, memory, bound, suffix) -> None:
        path = self._path_for(key, suffix)
        if path is not None:
            try:
                value.save(path)
            except OSError:
                pass  # read-only cache dir: stay in-memory only
        self._remember(key, value, memory, bound)

    @staticmethod
    def _remember(key, value, memory, bound) -> None:
        memory[key] = value
        memory.move_to_end(key)
        while len(memory) > bound:
            memory.popitem(last=False)

    def clear_memory(self) -> None:
        self._memory.clear()
        self._plan_memory.clear()


#: Process-wide cache instance used by the experiment harness.
GLOBAL_TRACE_CACHE = TraceCache()
