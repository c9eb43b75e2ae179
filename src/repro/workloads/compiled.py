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

The result is one table of typed NumPy columns, a row per request
(:data:`COLUMN_DTYPES`; an ``.npz`` holds :data:`STORED_COLUMNS`, the
rest are rebuilt from them). The replay kernel
(:func:`repro.cache.kernel.replay_runs`), routing and the worker pool
read the columns as they are; sub-traces index them (a ``slice`` is a
view, nothing is copied); the few Python loops left over a column take
``.tolist()`` once at the top. :class:`TraceCache` stores compiled
traces on disk (``.npz``) and in process memory so the ~17 experiment
runners stop regenerating identical Memcachier/Zipf traces from scratch.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Union

import numpy as np

from repro.cache.kernel import ReplayColumns
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import OP_CODES, OP_NAMES
from repro.common.constants import DEFAULT_PLAN_CACHE_ENTRIES
from repro.common.errors import TraceFormatError
from repro.workloads.trace import Request

#: Bump when the on-disk layout changes; stale files are recompiled.
_DISK_FORMAT_VERSION = 1

#: Every per-request column and its dtype, in memory and (for the ones
#: stored) in the ``.npz``.
COLUMN_DTYPES: Dict[str, type] = {
    "times": np.float64,
    "app_ids": np.int32,
    "key_ids": np.int64,
    "op_codes": np.int8,
    "value_sizes": np.int64,
    "key_sizes": np.int64,
    "keys": object,
    "slab_classes": np.int16,
    "chunk_bytes": np.int64,
    "item_bytes": np.int64,
}
#: The columns an ``.npz`` stores; the other four are rebuilt from them
#: on compile and load (every row's key string and its
#: :meth:`~repro.cache.slabs.SlabGeometry.rows`).
STORED_COLUMNS = tuple(COLUMN_DTYPES)[:6]


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

    Every per-request column (:data:`COLUMN_DTYPES`) is a NumPy array of
    its declared dtype, read-only because sub-traces share memory with
    their parent. ``keys`` is an object array gathered from
    ``key_table``, so ``keys[i] is key_table[key_ids[i]]`` and the
    replay path passes the exact same key objects the uncompiled replay
    would, byte for byte. ``app_table`` / ``key_table`` are lists of
    ``str``, shared (never copied) between a trace and its sub-traces.
    """

    __slots__ = (
        "geometry",
        "app_table",
        "key_table",
        *COLUMN_DTYPES,
        "_routing_digest",
    )

    def __init__(
        self,
        geometry: SlabGeometry,
        app_table: List[str],
        key_table: List[str],
        columns: Mapping[str, np.ndarray],
    ) -> None:
        """``columns`` has every :data:`COLUMN_DTYPES` name (see
        :meth:`from_stored`)."""
        self.geometry = geometry
        self.app_table = app_table
        self.key_table = key_table
        for name, dtype in COLUMN_DTYPES.items():
            column = columns[name].astype(dtype, copy=False)
            column.setflags(write=False)
            setattr(self, name, column)
        self._routing_digest: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_stored(
        cls,
        geometry: SlabGeometry,
        app_table: List[str],
        key_table: List[str],
        **stored: object,
    ) -> "CompiledTrace":
        """Build from the :data:`STORED_COLUMNS` (lists or arrays),
        deriving the rest."""
        columns = {
            name: np.asarray(stored[name], dtype=COLUMN_DTYPES[name])
            for name in STORED_COLUMNS
        }
        classes, chunks, items = geometry.rows(columns["key_sizes"], columns["value_sizes"])
        keys = np.array(key_table, dtype=object)[columns["key_ids"]]
        columns.update(keys=keys, slab_classes=classes, chunk_bytes=chunks, item_bytes=items)
        return cls(geometry, app_table, key_table, columns)

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
        return cls.from_stored(
            geometry,
            app_table,
            key_table,
            times=times,
            app_ids=app_ids,
            key_ids=key_ids,
            op_codes=op_codes,
            value_sizes=value_sizes,
            key_sizes=key_sizes,
        )

    # ------------------------------------------------------------------
    # Introspection / adapters
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.key_ids)

    @property
    def app_names(self) -> List[str]:
        return list(self.app_table)

    def replay_columns(self) -> ReplayColumns:
        """The five columns :func:`repro.cache.kernel.replay_runs` reads:
        ``(keys, op_codes, slab_classes, chunk_bytes, item_bytes)``."""
        return self.keys, self.op_codes, self.slab_classes, self.chunk_bytes, self.item_bytes

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
            digest.update(self.key_ids.tobytes())
            self._routing_digest = digest.hexdigest()[:32]
        return self._routing_digest

    def iter_requests(self) -> Iterator[Request]:
        """Re-expand into :class:`Request` objects (compat adapter),
        their fields plain ``float`` / ``int`` / ``str``."""
        for time, app_id, key, op, value_size, key_size in zip(
            self.times.tolist(),
            self.app_ids.tolist(),
            self.keys.tolist(),
            self.op_codes.tolist(),
            self.value_sizes.tolist(),
            self.key_sizes.tolist(),
        ):
            yield Request(
                time=time,
                app=self.app_table[app_id],
                key=key,
                op=OP_NAMES[op],
                value_size=value_size,
                key_size=key_size,
            )

    def select_apps(self, apps: Iterable[str]) -> "CompiledTrace":
        """Subtrace containing only ``apps``, in original order.

        Because the merged trace is a stable interleaving of per-app
        streams, the filtered subsequence is exactly the merge of the
        chosen apps' streams.
        """
        wanted = set(apps)
        chosen = [i for i, name in enumerate(self.app_table) if name in wanted]
        return self._subset(np.isin(self.app_ids, chosen))

    def for_app(self, app: str) -> "CompiledTrace":
        return self.select_apps([app])

    def slice(self, start: int, stop: Optional[int] = None) -> "CompiledTrace":
        """Contiguous sub-trace (e.g. warmup/measure splits): views of
        this trace's columns, no copy."""
        n = len(self)
        stop = n if stop is None else min(stop, n)
        return self._subset(slice(min(start, stop), stop))

    def with_op(self, op: str) -> "CompiledTrace":
        """Copy with every request's op replaced (micro-benchmark splits).

        Slab classes are size-derived, so they are unaffected.
        """
        clone = self._subset(slice(None))
        clone.op_codes = np.full(
            len(self), OP_CODES[op], dtype=COLUMN_DTYPES["op_codes"]
        )
        return clone

    def _subset(self, rows: Union[slice, np.ndarray]) -> "CompiledTrace":
        """Sub-trace at ``rows``: a boolean mask (copies) or a ``slice``
        (views). Every column is indexed, the derived ones included, so
        nothing is recomputed; the tables are the parent's."""
        return CompiledTrace(
            self.geometry,
            self.app_table,
            self.key_table,
            {name: getattr(self, name)[rows] for name in COLUMN_DTYPES},
        )

    # ------------------------------------------------------------------
    # Disk format
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Serialize to ``.npz``. Written atomically (tmp file + rename)."""
        payload = {
            "version": np.array([_DISK_FORMAT_VERSION]),
            "chunk_sizes": np.array(self.geometry.chunk_sizes, dtype=np.int64),
            "app_table": np.array(self.app_table, dtype=np.str_),
            "key_table": np.array(self.key_table, dtype=np.str_),
        }
        for name in STORED_COLUMNS:
            payload[name] = getattr(self, name)
        return save_npz_atomic(path, payload)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CompiledTrace":
        """Read a :meth:`save` file without trusting it: columns of
        unequal length or an id outside its table raise
        :class:`TraceFormatError` here, not an ``IndexError`` (or, for a
        negative id, the wrong key) in the middle of a replay."""
        with np.load(path, allow_pickle=False) as data:
            if int(data["version"][0]) != _DISK_FORMAT_VERSION:
                raise TraceFormatError(
                    f"{path}: unsupported compiled-trace version"
                )
            geometry = SlabGeometry(
                tuple(int(c) for c in data["chunk_sizes"])
            )
            app_table = data["app_table"].tolist()
            key_table = data["key_table"].tolist()
            stored = {name: data[name] for name in STORED_COLUMNS}
        rows = stored["key_ids"].size
        if any(column.shape != (rows,) for column in stored.values()):
            raise TraceFormatError(f"{path}: columns differ in length")
        for name, bound in (
            ("app_ids", len(app_table)),
            ("key_ids", len(key_table)),
            ("op_codes", len(OP_NAMES)),
        ):
            column = stored[name]
            if rows and not (0 <= column.min() and column.max() < bound):
                raise TraceFormatError(
                    f"{path}: {name} outside [0, {bound})"
                )
        return cls.from_stored(geometry, app_table, key_table, **stored)


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
