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
# Shared-memory replay columns (zero-copy hand-off to replay workers)
# ---------------------------------------------------------------------------

#: Every numeric column one shared segment carries, in layout order.
#: ``scratch_shard_ids`` is a parent-writable routing column the fault
#: replay re-points workers at when the live set changes; the others are
#: immutable for the segment's lifetime.
_SHARED_FIELDS = (
    ("op_codes", np.int8),
    ("slab_classes", np.int16),
    ("chunk_bytes", np.int64),
    ("item_bytes", np.int64),
    ("app_ids", np.int32),
    ("key_ids", np.int64),
    ("shard_ids", np.int32),
    ("scratch_shard_ids", np.int32),
    ("key_lengths", np.int64),
    ("key_blob", np.uint8),
)

def _column_attr(name: str) -> str:
    """Attribute name for a shared field (key blob/lengths are private)."""
    return "_" + name if name in ("key_lengths", "key_blob") else name


#: Monotonic per-process counter for segment names. Names must be unique
#: per live segment but need no entropy (uuid/urandom are banned on the
#: replay path for determinism): pid + counter cannot collide with other
#: live segments from this or any concurrent process.
_SEGMENT_COUNTER = 0


def _next_segment_name() -> str:
    global _SEGMENT_COUNTER
    _SEGMENT_COUNTER += 1
    return f"repro-cols-{os.getpid()}-{_SEGMENT_COUNTER}"


class SharedTraceColumns:
    """One shared-memory segment holding a trace's replay columns.

    The parallel cluster replay ships each worker the *name* of this
    segment instead of pickling the trace: workers map the numeric
    columns zero-copy (``op_codes``, ``slab_classes``, ``chunk_bytes``,
    ``item_bytes``, ``app_ids``, the plan's ``shard_ids``) and rebuild
    only the interned key strings once, from a utf-8 blob + length
    column, because Python string objects cannot live in shared memory.

    ``scratch_shard_ids`` is the one mutable region: the fault-aware
    replay writes a new routing column there at a barrier (before
    releasing the next window, so workers never race the write) when a
    crash or restart changes where keys land.

    Lifecycle: the creating process calls :meth:`export` and eventually
    :meth:`unlink`; workers call :meth:`attach` with the picklable
    :attr:`meta` dict and :meth:`close` when done. Only the creator
    unlinks -- the segment disappears from ``/dev/shm`` once unlinked
    and closed everywhere.
    """

    def __init__(self, shm, meta, owner):
        self._shm = shm
        self.meta = meta
        self.owner = owner
        self.length = meta["length"]
        views = {}
        for name, offset, dtype_name, count in meta["fields"]:
            views[name] = np.ndarray(
                (count,),
                dtype=np.dtype(dtype_name),
                buffer=shm.buf,
                offset=offset,
            )
        self.op_codes = views["op_codes"]
        self.slab_classes = views["slab_classes"]
        self.chunk_bytes = views["chunk_bytes"]
        self.item_bytes = views["item_bytes"]
        self.app_ids = views["app_ids"]
        self.key_ids = views["key_ids"]
        self.shard_ids = views["shard_ids"]
        self.scratch_shard_ids = views["scratch_shard_ids"]
        self._key_lengths = views["key_lengths"]
        self._key_blob = views["key_blob"]
        self._keys = None

    @classmethod
    def export(cls, trace: CompiledTrace, shard_ids) -> "SharedTraceColumns":
        """Create a segment from ``trace`` plus the plan's shard column."""
        from multiprocessing import shared_memory

        _, op_codes, slab_classes, chunk_bytes, item_bytes = (
            trace.replay_columns()
        )
        encoded = [key.encode("utf-8") for key in trace.key_table]
        blob = b"".join(encoded)
        arrays = {
            "op_codes": op_codes,
            "slab_classes": slab_classes,
            "chunk_bytes": chunk_bytes,
            "item_bytes": item_bytes,
            "app_ids": np.asarray(trace.app_ids, dtype=np.int32),
            "key_ids": np.asarray(trace.key_ids, dtype=np.int64),
            "shard_ids": np.ascontiguousarray(shard_ids, dtype=np.int32),
            "scratch_shard_ids": np.ascontiguousarray(
                shard_ids, dtype=np.int32
            ),
            "key_lengths": np.fromiter(
                (len(piece) for piece in encoded),
                dtype=np.int64,
                count=len(encoded),
            ),
            "key_blob": np.frombuffer(blob, dtype=np.uint8),
        }
        if len(arrays["shard_ids"]) != len(trace):
            raise TraceFormatError(
                f"shard column covers {len(arrays['shard_ids'])} "
                f"request(s); trace has {len(trace)}"
            )
        fields = []
        offset = 0
        for name, dtype in _SHARED_FIELDS:
            dtype = np.dtype(dtype)
            offset = -(-offset // 8) * 8  # 8-byte align every column
            fields.append((name, offset, dtype.name, len(arrays[name])))
            offset += len(arrays[name]) * dtype.itemsize
        total = max(offset, 1)
        while True:
            try:
                shm = shared_memory.SharedMemory(
                    name=_next_segment_name(), create=True, size=total
                )
                break
            except FileExistsError:
                continue  # stale name from a recycled pid: try the next
        meta = {
            "name": shm.name,
            "length": len(trace),
            "fields": fields,
        }
        columns = cls(shm, meta, owner=True)
        for name, _ in _SHARED_FIELDS:
            getattr(columns, _column_attr(name))[:] = arrays[name]
        return columns

    @classmethod
    def attach(cls, meta) -> "SharedTraceColumns":
        """Map an existing segment from its picklable ``meta`` dict."""
        from multiprocessing import shared_memory

        return cls(
            shared_memory.SharedMemory(name=meta["name"]), meta, owner=False
        )

    def keys(self) -> np.ndarray:
        """The per-request key object column, rebuilt once per process.

        Decodes the interned key table from the shared blob, then
        gathers per-request references -- the only non-zero-copy column,
        and the reason attach cost is O(unique keys), not O(requests).
        """
        if self._keys is None:
            lengths = self._key_lengths
            blob = self._key_blob.tobytes()
            table = []
            cursor = 0
            for size in lengths.tolist():
                table.append(blob[cursor : cursor + size].decode("utf-8"))
                cursor += size
            table_column = np.empty(len(table), dtype=object)
            table_column[:] = table
            self._keys = table_column[self.key_ids]
        return self._keys

    def close(self) -> None:
        """Drop this mapping (both sides call this; owner also unlinks).

        All numpy views are released first; if the caller still holds a
        live slice of one, the munmap is deferred to process exit rather
        than raising -- workers exit right after closing anyway.
        """
        for name, _ in _SHARED_FIELDS:
            setattr(self, _column_attr(name), None)
        self._keys = None
        try:
            self._shm.close()
        except BufferError:
            pass

    def unlink(self) -> None:
        """Remove the segment name (creator only); idempotent."""
        if not self.owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


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

    def _path_for(self, key: str, suffix: str = "npz") -> Optional[Path]:
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
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            return cached
        path = self._path_for(key)
        if path is not None and path.exists():
            try:
                compiled = CompiledTrace.load(path)
            except Exception:
                compiled = None  # corrupt/stale: fall through to recompile
            if compiled is not None:
                self._remember(key, compiled)
                return compiled
        compiled = CompiledTrace.compile(factory(), geometry)
        if path is not None:
            try:
                compiled.save(path)
            except OSError:
                pass  # read-only cache dir: stay in-memory only
        self._remember(key, compiled)
        return compiled

    def get_or_build_plan(self, key: str, factory):
        """Return the :class:`~repro.cluster.routing.RoutingPlan` cached
        under ``key``, building (and persisting) it on first use.

        ``key`` must encode everything the plan depends on -- the
        trace's routing digest plus every ring/replication parameter
        (see :func:`repro.cluster.routing.plan_cache_key`).
        """
        from repro.cluster.routing import RoutingPlan

        cached = self._plan_memory.get(key)
        if cached is not None:
            self._plan_memory.move_to_end(key)
            return cached
        path = self._path_for(key, suffix="plan.npz")
        if path is not None and path.exists():
            try:
                plan = RoutingPlan.load(path)
            except Exception:
                plan = None  # corrupt/stale: fall through to rebuild
            if plan is not None:
                self._remember_plan(key, plan)
                return plan
        plan = factory()
        self.store_plan(key, plan)
        return plan

    def store_plan(self, key: str, plan) -> None:
        """Put ``plan`` in both cache levels under ``key``, overwriting
        whatever is there (also the self-heal path for stale or corrupt
        disk entries detected by the caller)."""
        path = self._path_for(key, suffix="plan.npz")
        if path is not None:
            try:
                plan.save(path)
            except OSError:
                pass  # read-only cache dir: stay in-memory only
        self._remember_plan(key, plan)

    def _remember(self, key: str, compiled: CompiledTrace) -> None:
        self._memory[key] = compiled
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def _remember_plan(self, key: str, plan) -> None:
        self._plan_memory[key] = plan
        self._plan_memory.move_to_end(key)
        while len(self._plan_memory) > self.plan_entries:
            self._plan_memory.popitem(last=False)

    def clear_memory(self) -> None:
        self._memory.clear()
        self._plan_memory.clear()


#: Process-wide cache instance used by the experiment harness.
GLOBAL_TRACE_CACHE = TraceCache()
