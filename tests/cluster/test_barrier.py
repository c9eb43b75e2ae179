"""One clock, one window driver, three callers.

The offline replay, the worker pool and the live batch path
(:meth:`Cluster.process_batch`) all run ``Cluster._drive`` and hand
control to the same ``Cluster._barrier`` -- sample, rebalance epoch,
fault events -- so a seed and a schedule fix *where* every hook fires
no matter which of them is driving. They differ only in the
``replay_window`` callback ``_drive`` hands each window to: the replay
kernel (in-process or on the worker pool) offline, a per-request walk
for live batches. Live batches arrive as int8 ``op_codes`` slices and
other NumPy columns of the compiled trace, as a caller may pass them. A Hypothesis property pins that
down, a long schedule checks that the router's per-live-mask memos stay
bounded without changing a single counter, and a disarm test checks
that a finished replay's barriers do not leak into later live batches.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

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

    def spy_barrier(offset, injector=None):
        offset_now[0] = offset
        barrier(offset, injector)

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
    apps = [compiled.app_table[app_id] for app_id in compiled.app_ids]
    start = turn = 0
    while start < len(compiled):
        stop = min(len(compiled), start + sizes[turn % len(sizes)])
        cluster.process_batch(
            compiled.keys[start:stop],
            compiled.op_codes[start:stop],
            compiled.value_sizes[start:stop],
            apps[start:stop],
            key_sizes=compiled.key_sizes[start:stop],
        )
        start, turn = stop, turn + 1
    if injector is not None:
        injector.finish(cluster.object_requests)


def prepared(scenario):
    cluster, compiled = prepare_cluster(scenario, WORKLOAD)
    return cluster, compiled, spy_on_barriers(cluster)


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

    pooled, _, pooled_log = prepared(
        scenario.replace(cluster=dict(scenario.cluster, parallel_workers=2))
    )
    pooled.replay_compiled(compiled)

    live, _, live_log = prepared(scenario)
    serve_in_batches(live, compiled, sizes)

    assert offline_log  # every schedule has at least its own barriers
    assert pooled_log == offline_log
    assert live_log == offline_log
    for other in (pooled, live):
        assert [counters_snapshot(s.stats) for s in other.servers] == [
            counters_snapshot(s.stats) for s in offline.servers
        ]


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
    offline, compiled = prepare_cluster(scenario, WORKLOAD)
    offline.replay_compiled(compiled)
    (columns,) = traces
    assert len(columns._columns) <= 2
    assert (True,) * 4 in columns._columns  # the plan's own column
    assert len(offline.router._successors) <= 2
    assert [counters_snapshot(s.stats) for s in offline.servers] == expected

    live, _ = prepare_cluster(scenario, WORKLOAD)
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
    cluster, compiled = prepare_cluster(scenario, WORKLOAD)
    cluster.replay_compiled(compiled)
    injector = cluster.fault_injector
    assert injector.next_barrier(0) is None
    samples = len(injector.times)
    log = spy_on_barriers(cluster)
    windows = []
    drive = cluster._drive

    def spy_drive(clock, count, replay_window):
        def counted(start, stop, mask, dead):
            windows.append(stop - start)
            replay_window(start, stop, mask, dead)

        drive(clock, count, counted)

    cluster._drive = spy_drive
    cluster.process_batch(
        compiled.keys[:400], "get", 100, compiled.app_table[0], key_sizes=0
    )
    assert windows == [400]
    assert log == []
    assert len(injector.times) == samples
