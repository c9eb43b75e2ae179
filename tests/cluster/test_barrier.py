"""One clock, one window driver, two callers.

The offline replay and the live batch path
(:meth:`Cluster.process_batch`) both run ``Cluster._drive`` and hand
control to the same ``Cluster._barrier`` -- sample, rebalance epoch,
fault events -- so a seed and a schedule fix *where* every hook fires
whichever of them is driving. They differ only in the
``replay_window`` callback ``_drive`` hands each window to: the replay
kernel offline, a per-request walk for live batches. (The parallel
replay runs no barrier hook at all: a cluster with a rebalancer or a
fault injector refuses it, ``tests/cluster/test_parallel.py``.) Live
batches arrive as the wire service sends them: list slices of the
compiled trace's keys, op codes, value sizes and app names (the zipf
workload's key sizes are its keys' lengths). A
Hypothesis property pins that down, a long schedule checks that the
router's per-live-mask memos stay bounded without changing a single
counter, and a disarm test checks that a finished replay's barriers do
not leak into later live batches.

A fault timeline's samples are not barriers: they fall inside windows
and read the counters as they stood there. A second property holds
every driver's whole cluster report -- timeline, crash records, miss
cost, recovery, per-shard counters -- to the reference, which stops at
every sample.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.stats import OP_GET, OP_SET
from repro.cluster.faults import FAULT_POLICIES
from repro.cluster.routing import TraceColumns
from repro.sim import Scenario, load_workload
from repro.sim.runner import prepare_cluster
from tests.cluster.helpers import counters_snapshot, run_reference, schedules

WORKLOAD_PARAMS = {"apps": 2, "num_keys": 2_000, "requests_per_app": 8_000}

BASE = Scenario(
    scheme="hill",
    workload="zipf",
    scale=0.1,
    seed=0,
    workload_params=dict(WORKLOAD_PARAMS),
    cluster={"shards": 4, "virtual_nodes": 4},
)

WORKLOAD = load_workload("zipf", scale=0.1, seed=0, **WORKLOAD_PARAMS)
TOTAL = len(WORKLOAD.compiled)


def spy_on_barriers(cluster):
    """Log ``(offset, kind)`` for every hook ``cluster._barrier`` fires
    (``None`` offsets are the offset-0 events ``begin`` applies)."""
    log = []
    offset_now = [None]
    barrier = cluster._barrier

    def spy_barrier(offset, *rest):
        offset_now[0] = offset
        barrier(offset, *rest)

    cluster._barrier = spy_barrier
    for owner, name, kind in (
        (cluster.fault_injector, "on_barrier", "sample"),
        (cluster.rebalancer, "on_epoch", "epoch"),
        (cluster.fault_injector, "apply_events", "events"),
    ):
        if owner is None:
            continue
        hook = getattr(owner, name)

        def spy(*args, hook=hook, kind=kind):
            log.append((offset_now[0], kind))
            return hook(*args)

        setattr(owner, name, spy)
    return log


def serve_in_batches(cluster, compiled, sizes):
    """Feed ``compiled`` through ``process_batch`` in batches of the
    given sizes (cycled), with the injector armed like the live server
    arms it."""
    injector = cluster.fault_injector
    if injector is not None:
        injector.begin(len(compiled))
    keys = compiled.keys.tolist()
    ops = compiled.op_codes.tolist()
    values = compiled.value_sizes.tolist()
    apps = [compiled.app_table[app_id] for app_id in compiled.app_ids]
    start = turn = 0
    while start < len(compiled):
        stop = min(len(compiled), start + sizes[turn % len(sizes)])
        cluster.process_batch(
            keys[start:stop], ops[start:stop], values[start:stop], apps[start:stop]
        )
        start, turn = stop, turn + 1
    if injector is not None:
        injector.finish(cluster.object_requests)


def prepared(scenario):
    cluster = prepare_cluster(scenario, WORKLOAD)
    return cluster, WORKLOAD.compiled, spy_on_barriers(cluster)


@settings(max_examples=10, deadline=None)
@given(
    faults=schedules(TOTAL),
    epoch=st.sampled_from([0, 97, 400]),
    sizes=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=6),
)
def test_barriers_fire_identically_for_every_driver(faults, epoch, sizes):
    scenario = BASE.replace(
        faults=faults,
        rebalance={"epoch_requests": epoch, "policy": "shadow"},
    )
    offline, compiled, offline_log = prepared(scenario)
    offline.replay_compiled(compiled)

    live, _, live_log = prepared(scenario)
    serve_in_batches(live, compiled, sizes)

    assert offline_log  # every schedule has at least its own barriers
    assert live_log == offline_log
    assert [counters_snapshot(s.stats) for s in live.servers] == [
        counters_snapshot(s.stats) for s in offline.servers
    ]


def report_bytes(cluster):
    """The cluster report as canonical JSON text, with the per-shard
    counters behind it."""
    counters = [
        sorted(counters_snapshot(server.stats).items(), key=repr)
        for server in cluster.servers
    ]
    return json.dumps([cluster.report().to_dict(), counters], sort_keys=True)


@pytest.mark.parametrize("policy", FAULT_POLICIES)
@settings(max_examples=6, deadline=None)
@given(
    faults=schedules(TOTAL),
    epoch=st.sampled_from([0, 97, 400]),
    sizes=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=6),
)
def test_mid_window_samples_match_the_reference(policy, faults, epoch, sizes):
    scenario = BASE.replace(
        faults=dict(faults, policy=policy),
        rebalance={"epoch_requests": epoch, "policy": "shadow"},
    )
    expected = report_bytes(run_reference(scenario).cluster)

    compiled = WORKLOAD.compiled
    offline = prepare_cluster(scenario, WORKLOAD)
    offline.replay_compiled(compiled)
    live = prepare_cluster(scenario, WORKLOAD)
    serve_in_batches(live, compiled, sizes)
    # Booleans, not the texts: a diff of two long reports is slow to render.
    matches = {
        name: report_bytes(cluster) == expected
        for name, cluster in (("offline", offline), ("live", live))
    }
    assert matches == dict.fromkeys(matches, True)


@pytest.mark.parametrize("policy", FAULT_POLICIES)
def test_live_cuts_count_gets_by_op_among_sets(policy):
    """The workload above is all GETs, so a cut that miscounted SETs as
    GETs would pass there. With 30% SETs a live batch's cut tallies
    must still equal the reference's samples."""
    params = dict(WORKLOAD_PARAMS, set_fraction=0.3)
    scenario = BASE.replace(
        workload_params=params,
        faults={
            "events": [
                {"kind": "crash", "shard": 1, "at": 400},
                {"kind": "restart", "shard": 1, "at": 900},
            ],
            "policy": policy,
            "sample_requests": 37,
        },
    )
    expected = report_bytes(run_reference(scenario).cluster)
    workload = load_workload("zipf", scale=0.1, seed=0, **params)
    live = prepare_cluster(scenario, workload)
    compiled = workload.compiled
    assert 0 < int((compiled.op_codes == OP_SET).sum()) < len(compiled)
    serve_in_batches(live, compiled, [50, 7, 123])
    assert report_bytes(live) == expected


def test_live_mask_memos_stay_bounded_on_a_long_schedule(monkeypatch):
    # Five distinct live sets (all-live, {1}, {1,2}, {2}, {3} down) under
    # failover: each memo may keep the all-live entry plus the latest.
    quarter = TOTAL // 8
    events = [
        {"kind": "crash", "shard": 1, "at": quarter},
        {"kind": "crash", "shard": 2, "at": 2 * quarter},
        {"kind": "restart", "shard": 1, "at": 3 * quarter},
        {"kind": "restart", "shard": 2, "at": 4 * quarter},
        {"kind": "crash", "shard": 3, "at": 5 * quarter},
        {"kind": "restart", "shard": 3, "at": 6 * quarter},
    ]
    scenario = BASE.replace(
        cluster=dict(BASE.cluster, replication=2),
        faults={"events": events, "policy": "failover"},
    )
    reference = run_reference(scenario)
    expected = [counters_snapshot(s.stats) for s in reference.cluster.servers]

    traces = []

    class SpyColumns(TraceColumns):
        def __init__(self, *args):
            super().__init__(*args)
            traces.append(self)

    monkeypatch.setattr("repro.cluster.cluster.TraceColumns", SpyColumns)
    compiled = WORKLOAD.compiled
    offline = prepare_cluster(scenario, WORKLOAD)
    offline.replay_compiled(compiled)
    (columns,) = traces
    assert len(columns._columns) <= 2
    assert (True,) * 4 in columns._columns  # the plan's own column
    assert len(offline.router._successors) <= 2
    assert [counters_snapshot(s.stats) for s in offline.servers] == expected

    live = prepare_cluster(scenario, WORKLOAD)
    serve_in_batches(live, compiled, [64])
    assert len(live.router._successors) <= 2
    assert (True,) * 4 in live.router._successors
    assert [counters_snapshot(s.stats) for s in live.servers] == expected


def test_finished_replay_leaves_no_barriers_for_live_batches():
    # Disarm hygiene: after an offline faulted replay the injector's
    # offsets are gone, so a later batch on the same cluster (its clock
    # starts at 0 and would cross every one of them) runs as one window
    # and adds no sample to the finished replay's timeline.
    events = [
        {"kind": "crash", "shard": 1, "at": 100},
        {"kind": "restart", "shard": 1, "at": 300},
    ]
    scenario = BASE.replace(
        faults={"events": events, "policy": "failover", "sample_requests": 50}
    )
    cluster = prepare_cluster(scenario, WORKLOAD)
    compiled = WORKLOAD.compiled
    cluster.replay_compiled(compiled)
    injector = cluster.fault_injector
    assert injector.next_barrier(0) is None
    samples = len(injector.times)
    log = spy_on_barriers(cluster)
    windows = []
    drive = cluster._drive

    def spy_drive(clock, count, replay_window):
        def counted(start, stop, *rest):
            windows.append(stop - start)
            return replay_window(start, stop, *rest)

        drive(clock, count, counted)

    cluster._drive = spy_drive
    cluster.process_batch(
        compiled.keys[:400].tolist(), [OP_GET] * 400, [100] * 400,
        [compiled.app_table[0]] * 400,
    )
    assert windows == [400]
    assert log == []
    assert len(injector.times) == samples
