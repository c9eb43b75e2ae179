"""Property tests: compiled traces are a lossless, replay-equivalent
representation of request streams."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.server import CacheServer
from repro.cache.log_structured import GlobalLRUEngine
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import OP_CODES
from repro.common.errors import TraceFormatError
from repro.core.engine import CliffhangerEngine
from repro.experiments.table3_cross_app import _app_byte_curves
from repro.sim import SyntheticTrace, profile_app_classes
from repro.workloads.compiled import (
    _DISK_FORMAT_VERSION,
    COLUMN_DTYPES,
    STORED_COLUMNS,
    CompiledTrace,
    TraceCache,
)
from repro.workloads.trace import OPS, Request
from tests.workloads.reference_streams import iter_requests

GEOMETRY = SlabGeometry.default()

# Value sizes that always fit the largest slab class, leaving room for
# key bytes and the per-item overhead.
_MAX_VALUE = GEOMETRY.chunk_sizes[-1] - 256


@st.composite
def traces(draw, max_requests: int = 120):
    """Generated mixed-op, multi-app request streams (time-ordered)."""
    num_apps = draw(st.integers(min_value=1, max_value=3))
    apps = [f"app{i}" for i in range(num_apps)]
    count = draw(st.integers(min_value=1, max_value=max_requests))
    # Per-key deterministic sizes, like every real generator in the repo.
    sizes = {}
    requests = []
    for i in range(count):
        app = draw(st.sampled_from(apps))
        key_index = draw(st.integers(min_value=0, max_value=30))
        key = f"{app}:k{key_index}"
        if key not in sizes:
            sizes[key] = draw(st.integers(min_value=1, max_value=_MAX_VALUE))
        op = draw(
            st.sampled_from(["get", "get", "get", "set", "delete"])
        )
        requests.append(
            Request(
                time=float(i),
                app=app,
                key=key,
                op=op,
                value_size=sizes[key],
            )
        )
    return requests


def _counter_state(counter):
    return (
        counter.get_hits,
        counter.get_misses,
        counter.sets,
        counter.shadow_hits,
        counter.evictions,
    )


def _registry_state(stats):
    return (
        _counter_state(stats.total),
        sorted(
            (app, _counter_state(c)) for app, c in stats.by_app.items()
        ),
        sorted(
            ((app, -1 if slab is None else slab), _counter_state(c))
            for (app, slab), c in stats.by_app_class.items()
        ),
    )


def _server_for(requests, make_engine):
    server = CacheServer(GEOMETRY)
    for app in sorted({r.app for r in requests}):
        server.add_app(make_engine(app))
    return server


ENGINE_FACTORIES = {
    "global-lru": lambda app: GlobalLRUEngine(app, 64 << 10, GEOMETRY),
    "cliffhanger": lambda app: CliffhangerEngine(
        app,
        64 << 10,
        GEOMETRY,
        seed=0,
        probe_items=12,
        min_cliff_items=20,
    ),
}


@settings(max_examples=40, deadline=None)
@given(traces())
def test_compile_roundtrip_preserves_requests(requests):
    compiled = CompiledTrace.compile(requests, GEOMETRY)
    assert len(compiled) == len(requests)
    assert list(iter_requests(compiled)) == requests


def _replay_one_at_a_time(server, requests):
    """The oracle: each request classified on its own and recorded as it
    is served."""
    for request in requests:
        op = OP_CODES[request.op]
        code = server.engines[request.app].process_fast(
            request.key,
            op,
            *GEOMETRY.row(request.key_size, request.value_size),
        )
        server.stats.record_code(request.app, op, code)


@settings(max_examples=25, deadline=None)
@given(traces())
@pytest.mark.parametrize("engine_kind", sorted(ENGINE_FACTORIES))
def test_compiled_replay_equals_object_replay(engine_kind, requests):
    make = ENGINE_FACTORIES[engine_kind]
    compiled = CompiledTrace.compile(requests, GEOMETRY)

    object_server = _server_for(requests, make)
    _replay_one_at_a_time(object_server, requests)

    fast_server = _server_for(requests, make)
    fast_server.replay_compiled(compiled)

    assert _registry_state(fast_server.stats) == _registry_state(
        object_server.stats
    )


@settings(max_examples=20, deadline=None)
@given(requests=traces(max_requests=60))
def test_save_load_roundtrip(requests, tmp_path_factory):
    compiled = CompiledTrace.compile(requests, GEOMETRY)
    path = tmp_path_factory.mktemp("traces") / "trace.npz"
    compiled.save(path)
    loaded = CompiledTrace.load(path)
    assert list(iter_requests(loaded)) == requests
    assert loaded.slab_classes.tolist() == compiled.slab_classes.tolist()
    assert loaded.chunk_bytes.tolist() == compiled.chunk_bytes.tolist()
    assert loaded.app_table == compiled.app_table
    assert loaded.key_table == compiled.key_table
    for name, dtype in COLUMN_DTYPES.items():
        column = getattr(loaded, name)
        assert column.dtype == dtype, name
        assert column.tolist() == getattr(compiled, name).tolist(), name
    _assert_keys_are_table_entries(loaded)


def _assert_keys_are_table_entries(trace):
    """``keys[i] is key_table[key_ids[i]]``: the replay passes the
    table's own string objects, whatever sub-trace it runs."""
    for key, key_id in zip(trace.keys.tolist(), trace.key_ids.tolist()):
        assert key is trace.key_table[key_id]


def _plain(value, kind):
    """Exactly the builtin: a NumPy scalar passes ``isinstance`` for
    ``float`` but not this, and ``json.dumps`` refuses its integers."""
    return type(value) is kind


@settings(max_examples=60, deadline=None)
@given(
    requests=traces(),
    chosen=st.sets(st.sampled_from(["app0", "app1", "app2", "nobody"])),
    low=st.integers(min_value=0, max_value=140),
    high=st.one_of(st.none(), st.integers(min_value=0, max_value=140)),
    op=st.sampled_from(OPS),
)
def test_subsets_equal_filtering_the_requests(requests, chosen, low, high, op):
    """``select_apps`` / ``slice`` / ``with_op``, alone and chained, give
    the requests a list filter gives, in every declared dtype."""
    compiled = CompiledTrace.compile(requests, GEOMETRY)
    _assert_keys_are_table_entries(compiled)
    kept = [r for r in requests if r.app in chosen]
    cases = [
        (compiled.select_apps(chosen), kept),
        (compiled.slice(low, high), requests[low:high]),
        (compiled.select_apps(chosen).slice(low, high), kept[low:high]),
        (
            compiled.slice(low, high).select_apps(chosen),
            [r for r in requests[low:high] if r.app in chosen],
        ),
        (
            compiled.with_op(op),
            [dataclasses.replace(r, op=op) for r in requests],
        ),
        (
            compiled.slice(low, high).with_op(op),
            [dataclasses.replace(r, op=op) for r in requests[low:high]],
        ),
    ]
    for sub, expected in cases:
        assert len(sub) == len(expected)
        assert list(iter_requests(sub)) == expected
        assert sub.app_table is compiled.app_table
        assert sub.key_table is compiled.key_table
        for name, dtype in COLUMN_DTYPES.items():
            column = getattr(sub, name)
            assert column.dtype == dtype and column.shape == (len(sub),)
        _assert_keys_are_table_entries(sub)
    # The parent is untouched by its sub-traces (slices are views).
    assert list(iter_requests(compiled)) == requests


@settings(max_examples=25, deadline=None)
@given(traces())
def test_python_loops_hand_out_plain_scalars(requests):
    """``iter_requests``, ``profile_app_classes`` and tab3's
    ``_app_byte_curves`` read the columns; what leaves them is plain
    ``int`` / ``float`` / ``str``, so a report built from their dict
    keys and counts goes through ``json.dumps``."""
    compiled = CompiledTrace.compile(requests, GEOMETRY)
    for request in iter_requests(compiled):
        assert _plain(request.time, float)
        assert _plain(request.app, str) and _plain(request.key, str)
        assert _plain(request.op, str)
        assert _plain(request.value_size, int)
        assert _plain(request.key_size, int)
    curves, frequencies = profile_app_classes(compiled)
    for class_index, gets in frequencies.items():
        assert _plain(class_index, int) and _plain(gets, int)
    assert all(_plain(class_index, int) for class_index in curves)
    json.dumps(frequencies)
    trace = SyntheticTrace(
        scale=1.0,
        seed=0,
        reservations={app: 1.0 for app in compiled.app_table},
        requests_per_app={},
        compiled=compiled,
    )
    _, gets_by_app = _app_byte_curves(trace)
    assert all(_plain(gets, int) for gets in gets_by_app.values())
    json.dumps(gets_by_app)


def test_disk_layout_pinned(tmp_path):
    """The names, dtypes and shapes ``save`` writes. Files of this
    layout sit in users' cache directories under the version in their
    name: a change here needs a ``_DISK_FORMAT_VERSION`` bump."""
    assert _DISK_FORMAT_VERSION == 1
    assert STORED_COLUMNS == (
        "times", "app_ids", "key_ids", "op_codes", "value_sizes", "key_sizes",
    )
    requests = [
        Request(time=float(i), app=f"app{i % 2}", key=f"app{i % 2}:key{i % 3}",
                op=OPS[i % 3], value_size=40 + i)
        for i in range(7)
    ]
    compiled = CompiledTrace.compile(requests, GEOMETRY)
    path = tmp_path / "trace.npz"
    compiled.save(path)
    with np.load(path) as data:
        layout = {
            name: (data[name].dtype.str, data[name].shape)
            for name in data.files
        }
    assert layout == {
        "version": ("<i8", (1,)),
        "chunk_sizes": ("<i8", (len(GEOMETRY.chunk_sizes),)),
        "times": ("<f8", (7,)),
        "app_ids": ("<i4", (7,)),
        "app_table": ("<U4", (2,)),
        "key_ids": ("<i8", (7,)),
        "key_table": ("<U9", (6,)),
        "op_codes": ("|i1", (7,)),
        "value_sizes": ("<i8", (7,)),
        "key_sizes": ("<i8", (7,)),
    }


def test_select_apps_matches_filtering():
    requests = [
        Request(time=float(i), app=f"app{i % 3}", key=f"app{i % 3}:k{i % 7}",
                op="get", value_size=100)
        for i in range(60)
    ]
    compiled = CompiledTrace.compile(requests, GEOMETRY)
    subset = compiled.select_apps(["app1"])
    expected = [r for r in requests if r.app == "app1"]
    assert list(iter_requests(subset)) == expected


def test_slice_and_with_op():
    requests = [
        Request(time=float(i), app="a", key=f"a:k{i}", op="get",
                value_size=50)
        for i in range(10)
    ]
    compiled = CompiledTrace.compile(requests, GEOMETRY)
    assert len(compiled.slice(0, 4)) == 4
    assert len(compiled.slice(4)) == 6
    sets = compiled.with_op("set")
    assert set(sets.op_codes.tolist()) == {1}
    assert sets.slab_classes.tolist() == compiled.slab_classes.tolist()


def test_compile_validates_once():
    bad_op = [Request.__new__(Request)]
    object.__setattr__(bad_op[0], "time", 0.0)
    object.__setattr__(bad_op[0], "app", "a")
    object.__setattr__(bad_op[0], "key", "a:k")
    object.__setattr__(bad_op[0], "op", "frobnicate")
    object.__setattr__(bad_op[0], "value_size", 10)
    object.__setattr__(bad_op[0], "key_size", 3)
    with pytest.raises(TraceFormatError):
        CompiledTrace.compile(bad_op, GEOMETRY)


def test_trace_cache_memory_and_disk(tmp_path):
    calls = []

    def factory():
        calls.append(1)
        return [
            Request(time=0.0, app="a", key="a:k", op="get", value_size=10)
        ]

    cache = TraceCache(directory=tmp_path, memory_entries=2)
    first = cache.get_or_compile("t1", factory)
    again = cache.get_or_compile("t1", factory)
    assert first is again and len(calls) == 1

    # A fresh cache instance must hit the disk copy, not the factory.
    other = TraceCache(directory=tmp_path)
    loaded = cache_hit = other.get_or_compile("t1", factory)
    assert len(calls) == 1
    assert list(iter_requests(cache_hit)) == list(iter_requests(first))
    assert loaded.keys.tolist() == first.keys.tolist()

    # Dropping the memory level falls back to the disk copy, not the factory.
    cache.clear_memory()
    reloaded = cache.get_or_compile("t1", factory)
    assert reloaded is not first and len(calls) == 1


def _rewrite(path, **changes):
    """Rewrite the ``.npz`` at ``path`` with ``changes[name](array)`` in
    place of each named array."""
    with np.load(path) as data:
        payload = {name: data[name] for name in data.files}
    for name, change in changes.items():
        payload[name] = change(payload[name])
    np.savez(path, **payload)


def _saved(tmp_path, **changes):
    """A valid two-app trace's ``.npz`` with some arrays replaced."""
    requests = [
        Request(time=float(i), app=f"app{i % 2}", key=f"app{i % 2}:k{i % 5}",
                op="get", value_size=100)
        for i in range(20)
    ]
    path = tmp_path / "trace.npz"
    CompiledTrace.compile(requests, GEOMETRY).save(path)
    _rewrite(path, **changes)
    return path, requests


def _with_first(value):
    def change(column):
        column = column.copy()
        column[0] = value
        return column

    return change


CORRUPTIONS = {
    "column one row short": {"op_codes": lambda column: column[:-1]},
    "app id past the table": {"app_ids": _with_first(2)},
    "negative key id": {"key_ids": _with_first(-1)},
    "op code past the names": {"op_codes": _with_first(len(OPS))},
}


def test_load_accepts_what_save_wrote(tmp_path):
    path, requests = _saved(tmp_path)
    assert list(iter_requests(CompiledTrace.load(path))) == requests


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_load_rejects_inconsistent_columns(tmp_path, corruption):
    """A file whose columns disagree is refused at the door, not found
    out by an ``IndexError`` (or a wrapped-around key) mid-replay."""
    path, _ = _saved(tmp_path, **CORRUPTIONS[corruption])
    with pytest.raises(TraceFormatError):
        CompiledTrace.load(path)


def test_trace_cache_heals_inconsistent_file(tmp_path):
    requests = [
        Request(time=float(i), app="a", key=f"a:k{i % 4}", op="get",
                value_size=10)
        for i in range(12)
    ]
    TraceCache(directory=tmp_path).get_or_compile("t", lambda: requests)
    (path,) = tmp_path.glob("*.npz")
    _rewrite(path, key_ids=_with_first(-2))
    with pytest.raises(TraceFormatError):
        CompiledTrace.load(path)

    calls = []

    def factory():
        calls.append(1)
        return requests

    rebuilt = TraceCache(directory=tmp_path).get_or_compile("t", factory)
    assert calls == [1]
    assert list(iter_requests(rebuilt)) == requests
    assert list(iter_requests(CompiledTrace.load(path))) == requests
