"""Process-parallel replay: bit-exact parity with the in-process one,
and a refusal wherever a barrier hook would have to cross processes.

A cluster with no rebalancer and no fault injector replays its whole
trace as one window, so splitting its shards across worker processes
must change *nothing* -- per-shard per-(app, class) counters, shard
load reports, used bytes -- versus the in-process executor, which
itself is pinned against the per-request reference. These tests compare
whole serialized results (minus wall-clock timings and the worker-count
knob itself) for static, replicated and clamped clusters, under the
``fork`` and ``spawn`` start methods. A rebalanced or faulted cluster
with ``parallel_workers >= 2`` raises a one-line
:class:`ConfigurationError` before any engine, counter or injector
record changes.

Alongside parity: the knob's validation surface, the fresh-cluster
guard, sweep reachability, worker-failure propagation (a reply, a death,
a prompt teardown), the hand-off itself (start-up arguments that pickle,
no shared-memory segment, nothing left in ``/dev/shm``), and in-process
unit coverage of the replay kernel the workers run (owned-shard filter,
dead-shard tallies).
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.shared_memory
import os
import pickle
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.server import CacheServer
from repro.cache.stats import OUTCOME_DEAD
from repro.cluster import ClusterConfig, build_routing_plan
from repro.cluster.cluster import scale_engine_budgets
from repro.cache.kernel import flush_runs, replay_runs
from repro.cluster.parallel import (
    WorkerPool,
    build_shard_servers,
    partition_shards,
    replay_parallel,
)
from repro.common.errors import ConfigurationError
from repro.experiments.cli import main
from repro.sim import Scenario, load_workload, run_scenario
from repro.sim.runner import build_cluster, prepare_cluster
from tests.cluster.helpers import counters_snapshot, shard_snapshots

SEED = 0
SHARDS = 4

WORKLOAD_PARAMS = {
    "apps": 2,
    "num_keys": 2_000,
    "requests_per_app": 8_000,
}

BASE = Scenario(
    scheme="hill",
    workload="zipf",
    scale=0.1,
    seed=SEED,
    workload_params=dict(WORKLOAD_PARAMS),
    cluster={"shards": SHARDS, "virtual_nodes": 4},
)

WORKLOAD = load_workload("zipf", scale=0.1, seed=SEED, **WORKLOAD_PARAMS)
TOTAL = len(WORKLOAD.compiled)

REBALANCE = {"epoch_requests": 400, "policy": "shadow"}

#: Offsets inside the 1600-request trace, so that every event fires.
FAULTS = {
    "events": [
        {"kind": "crash", "shard": 1, "at": 200},
        {"kind": "restart", "shard": 1, "at": 900},
        {"kind": "crash", "shard": 3, "at": 1_100},
    ],
}


def comparable(result):
    """A result's full serialized form minus wall-clock timings and the
    worker-count knob itself (the only knob allowed to differ)."""
    payload = result.to_dict()
    payload.pop("elapsed_seconds", None)
    payload.pop("requests_per_sec", None)
    payload["scenario"]["cluster"].pop("parallel_workers", None)
    return json.dumps(payload, sort_keys=True)


def with_workers(scenario, workers):
    return scenario.replace(
        cluster=dict(scenario.cluster, parallel_workers=workers)
    )


def shm_entries():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - linux only
        return []
    return [
        name
        for name in os.listdir("/dev/shm")
        if name.startswith("repro-cols-")
    ]


def assert_parity(scenario, workers=2):
    serial = run_scenario(scenario, keep_server=True)
    parallel = run_scenario(
        with_workers(scenario, workers), keep_server=True
    )
    assert comparable(parallel) == comparable(serial)
    assert shard_snapshots(parallel) == shard_snapshots(serial)
    assert shm_entries() == []
    assert not multiprocessing.active_children()
    return serial, parallel


# ---------------------------------------------------------------------------
# Parity: whole serialized results of barrier-free replays
# ---------------------------------------------------------------------------


def test_static_parallel_identical_to_serial():
    assert_parity(BASE)


def test_replicated_parallel_identical_to_serial():
    assert_parity(
        BASE.replace(cluster=dict(BASE.cluster, replication=2))
    )


def test_more_workers_than_shards_clamps():
    # parallel_workers=16 on 4 shards must still run (4 workers) and
    # still match byte for byte.
    assert_parity(BASE, workers=16)


def test_spawn_pool_tallies_identical_to_in_process_kernel():
    # The workers under the ``spawn`` start method (fresh interpreters,
    # pickled columns and factories) against the kernel called
    # in-process: same registries, same used bytes.
    pool_cluster, compiled = make_direct_cluster(workers=2)
    plan = build_routing_plan(
        compiled, pool_cluster.ring, pool_cluster.replication
    )
    memory = replay_parallel(pool_cluster, compiled, plan, start_method="spawn")
    local_cluster, _ = make_direct_cluster()
    flush_runs(
        local_cluster.servers,
        compiled.app_table,
        kernel_runs(local_cluster.servers, compiled, plan),
    )
    assert [
        counters_snapshot(s.stats) for s in pool_cluster.servers
    ] == [counters_snapshot(s.stats) for s in local_cluster.servers]
    assert memory == {
        shard: server.memory_in_use()
        for shard, server in enumerate(local_cluster.servers)
    }
    assert shm_entries() == []


def test_spawn_replay_identical_to_serial(monkeypatch):
    # A whole scenario under ``spawn``: nothing is inherited, the
    # columns and factories arrive pickled, and the report (used bytes
    # per shard included) still matches the in-process replay.
    monkeypatch.setattr("repro.common.mp.DEFAULT_START_METHOD", "spawn")
    assert_parity(BASE)


def test_parallel_replay_creates_no_shared_memory(monkeypatch):
    # Not merely "leaves none behind": none is ever asked for, in the
    # parent or (forked after the patch) in a worker.
    def refuse(*args, **kwargs):
        raise AssertionError("parallel replay created a shm segment")

    monkeypatch.setattr(
        multiprocessing.shared_memory, "SharedMemory", refuse
    )
    assert_parity(BASE)


# ---------------------------------------------------------------------------
# Refusal: barrier hooks stay in-process
# ---------------------------------------------------------------------------


def cluster_state(cluster):
    """What a refused replay must leave as it found it: every engine
    (the object and its budget), every counter, every shard's used
    bytes, and the injector's and rebalancer's state."""
    injector = cluster.fault_injector
    rebalancer = cluster.rebalancer
    return json.dumps(
        {
            "engines": [
                [
                    [app, id(engine), engine.budget_bytes]
                    for app, engine in server.engines.items()
                ]
                for server in cluster.servers
            ],
            "counters": [
                sorted(counters_snapshot(server.stats).items(), key=repr)
                for server in cluster.servers
            ],
            "used": [server.memory_in_use() for server in cluster.servers],
            "injector": None if injector is None else [
                injector.live,
                injector.to_dict(),
                injector.next_barrier(-1),
            ],
            "rebalancer": None if rebalancer is None else rebalancer.to_dict(),
        },
        sort_keys=True,
        default=repr,
    )


def assert_refused(scenario, workers=2):
    """``scenario`` with ``workers`` workers raises one line naming the
    knob, and leaves its cluster untouched."""
    cluster = prepare_cluster(with_workers(scenario, workers), WORKLOAD)
    before = cluster_state(cluster)
    with pytest.raises(ConfigurationError, match="parallel_workers") as caught:
        cluster.replay_compiled(WORKLOAD.compiled)
    assert "\n" not in str(caught.value)
    assert cluster_state(cluster) == before
    assert not multiprocessing.active_children()
    return cluster


BARRIER_BLOCKS = {
    "rebalance": {"rebalance": REBALANCE},
    "failover": {"faults": dict(FAULTS, policy="failover")},
    "miss-through": {"faults": dict(FAULTS, policy="miss-through")},
    "failover+rebalance": {
        "faults": dict(FAULTS, policy="failover"), "rebalance": REBALANCE,
    },
    "miss-through+rebalance": {
        "faults": dict(FAULTS, policy="miss-through"), "rebalance": REBALANCE,
    },
}


@pytest.mark.parametrize("blocks", list(BARRIER_BLOCKS))
def test_parallel_replay_refuses_barrier_hooks(blocks):
    assert_refused(BASE.replace(**BARRIER_BLOCKS[blocks]))


def test_refusal_precedes_an_offset_zero_crash():
    # An offset-0 crash would drain shard 0's budgets the moment the
    # injector is armed: the refusal comes first, so it never is.
    cluster = assert_refused(
        BASE.replace(
            faults={"events": [{"kind": "crash", "shard": 0, "at": 0}]},
        )
    )
    assert cluster.fault_injector.live == [True] * SHARDS
    assert cluster.fault_injector.records == []


@settings(max_examples=5, deadline=None)
@given(
    workers=st.integers(min_value=2, max_value=5),
    crash_at=st.integers(min_value=0, max_value=TOTAL - 2),
    policy=st.sampled_from(["failover", "miss-through"]),
    rebalance=st.booleans(),
)
def test_parallel_refusal_changes_nothing_on_random_schedules(
    workers, crash_at, policy, rebalance
):
    extra = {"rebalance": dict(REBALANCE)} if rebalance else {}
    scenario = BASE.replace(
        faults={
            "events": [
                {"kind": "crash", "shard": 2, "at": crash_at},
                {"kind": "restart", "shard": 2, "at": crash_at + 1},
            ],
            "policy": policy,
        },
        **extra,
    )
    assert_refused(scenario, workers)


def test_cli_refuses_a_rebalanced_parallel_replay_in_one_line(capsys):
    spec = with_workers(BASE.replace(rebalance=dict(REBALANCE)), 2)
    assert main(["run", json.dumps(spec.to_dict())]) == 2
    lines = [line for line in capsys.readouterr().err.splitlines() if line]
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert "parallel_workers" in lines[0]


# ---------------------------------------------------------------------------
# Knob surface
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [-1, True, 2.5, "two"])
def test_parallel_workers_rejects_bad_values(bad):
    with pytest.raises(ConfigurationError, match="parallel_workers"):
        ClusterConfig(shards=2, parallel_workers=bad)


def test_parallel_workers_round_trips_and_defaults():
    config = ClusterConfig.from_dict({"shards": 2, "parallel_workers": 3})
    assert config.parallel_workers == 3
    assert ClusterConfig.from_dict(config.to_dict()) == config
    assert ClusterConfig(shards=2).parallel_workers == 0


def test_single_shard_stays_serial():
    # The dispatch guard: one shard has nothing to fan out, so the
    # parallel knob is a no-op (no workers, same result).
    scenario = BASE.replace(cluster={"shards": 1, "virtual_nodes": 4})
    serial = run_scenario(scenario, keep_server=True)
    parallel = run_scenario(
        with_workers(scenario, 4), keep_server=True
    )
    assert comparable(parallel) == comparable(serial)


def test_sweep_axis_reaches_parallel_workers():
    from repro.sim import Sweep

    sweep = Sweep(
        base=BASE, axes={"cluster.parallel_workers": [0, 2]}
    )
    results = sweep.run()
    assert len(results) == 2
    by_workers = {
        r.scenario.cluster["parallel_workers"]: r for r in results
    }
    assert set(by_workers) == {0, 2}
    assert (
        by_workers[2].overall_hit_rate == by_workers[0].overall_hit_rate
    )
    assert by_workers[2].hit_rates == by_workers[0].hit_rates


# ---------------------------------------------------------------------------
# Guards and failure modes
# ---------------------------------------------------------------------------


def test_parallel_replay_requires_fresh_cluster():
    workload = load_workload("zipf", scale=0.1, seed=SEED, **WORKLOAD_PARAMS)
    compiled = workload.compiled
    cluster = build_cluster(with_workers(BASE, 2), workload)
    cluster.replay_compiled(compiled)  # first replay: fine
    with pytest.raises(ConfigurationError, match="fresh"):
        cluster.replay_compiled(compiled)  # warm engines: refused
    assert shm_entries() == []


def test_parallel_replay_requires_unscaled_budgets():
    workload = load_workload("zipf", scale=0.1, seed=SEED, **WORKLOAD_PARAMS)
    compiled = workload.compiled
    cluster = build_cluster(with_workers(BASE, 2), workload)
    cluster.scale_shard_budget(0, cluster.shard_budget(0) * 0.5)
    with pytest.raises(ConfigurationError, match="unscaled"):
        cluster.replay_compiled(compiled)
    assert shm_entries() == []


class BrokenFactory:
    """An engine factory that fails wherever it is called."""

    def __call__(self, shard, share):
        raise ValueError(f"no engine for shard {shard}")


class StalledFactory:
    """Builds shard 0's engines only after a minute, the others at
    once: a worker owning shard 0 is still starting when a test kills
    it, and the others finish."""

    def __init__(self, factory):
        self.factory = factory

    def __call__(self, shard, share):
        if shard == 0:
            time.sleep(60)
        return self.factory(shard, share)


def test_worker_failure_propagates_and_cleans_up():
    cluster, compiled = make_direct_cluster(workers=2)
    # Registered factories are what the workers build from; the
    # parent's engines already exist, so only the workers fail.
    cluster.engine_factories["zipf01"] = BrokenFactory()
    with pytest.raises(RuntimeError, match="worker 0 failed") as caught:
        cluster.replay_compiled(compiled)
    # The worker's traceback comes back with the error.
    assert "no engine for shard 0" in str(caught.value)
    assert not multiprocessing.active_children()
    assert shm_entries() == []


def pool_with_dead_worker():
    """A 2-worker pool whose worker 0 was SIGKILLed while still building
    its shards; worker 1 replays its shards and replies."""
    cluster, compiled = make_direct_cluster(workers=2)
    for app, factory in list(cluster.engine_factories.items()):
        cluster.engine_factories[app] = StalledFactory(factory)
    plan = build_routing_plan(compiled, cluster.ring, cluster.replication)
    pool = WorkerPool(cluster, compiled, plan)
    try:
        os.kill(pool.processes[0].pid, signal.SIGKILL)
        pool.processes[0].join(timeout=5)
    except BaseException:
        pool.shutdown()
        raise
    return pool


def test_dead_worker_surfaces_as_one_line_error():
    pool = pool_with_dead_worker()
    try:
        with pytest.raises(RuntimeError, match="worker 0 died") as caught:
            pool.results()
        assert "\n" not in str(caught.value)
    finally:
        pool.shutdown()


def test_shutdown_with_a_dead_worker_is_prompt_and_complete():
    # The survivor's one reply fits in its pipe: it exits on its own
    # without a traceback, and teardown waits for no one.
    pool = pool_with_dead_worker()
    started = time.monotonic()
    pool.shutdown()
    assert time.monotonic() - started < 5
    assert not any(process.is_alive() for process in pool.processes)
    assert pool.processes[1].exitcode == 0


class RecordingContext:
    """A start-method context whose processes never start: keeps what
    ``WorkerPool`` hands ``Process`` so a test can look at it."""

    Pipe = staticmethod(multiprocessing.Pipe)

    def __init__(self):
        self.args = []

    def Process(self, target, args, daemon):
        self.args.append(args)
        return self

    def start(self):
        pass

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return False


def test_worker_start_up_arguments_pickle_and_round_trip(monkeypatch):
    context = RecordingContext()
    monkeypatch.setattr(
        "repro.cluster.parallel.get_mp_context", lambda method: context
    )
    cluster, compiled = make_direct_cluster(workers=2)
    plan = build_routing_plan(compiled, cluster.ring, cluster.replication)
    WorkerPool(cluster, compiled, plan).shutdown()
    assert len(context.args) == 2
    # Each worker is told every parent end open when it is created,
    # its own included: the ones ``fork`` makes it inherit.
    assert [len(parent_ends) for _, parent_ends, _ in context.args] == [1, 2]
    for _, _, payload in context.args:
        copy = pickle.loads(pickle.dumps(payload))
        for ours, theirs in zip(
            copy["replay_columns"], compiled.replay_columns()
        ):
            assert ours.dtype == theirs.dtype
            assert ours.tolist() == theirs.tolist()
        assert copy["app_ids"].dtype == compiled.app_ids.dtype
        assert copy["app_ids"].tolist() == compiled.app_ids.tolist()
        assert np.array_equal(copy["shard_ids"], plan.shard_ids)
        assert copy["shard_ids"].dtype == plan.shard_ids.dtype
        assert copy["app_table"] == compiled.app_table
        assert copy["geometry"] == cluster.geometry
        for app, share, factory in copy["apps"]:
            engine = factory(payload["owned"][0], share)
            assert (engine.app, engine.budget_bytes) == (app, share)
    assert [p["owned"] for _, _, p in context.args] == [[0, 1], [2, 3]]


# ---------------------------------------------------------------------------
# The kernel the workers run, in process (subprocess code is invisible
# to coverage; the replay logic itself is exercised here directly)
# ---------------------------------------------------------------------------


def test_partition_shards_contiguous_and_balanced():
    blocks = partition_shards(10, 3)
    assert [len(b) for b in blocks] == [4, 3, 3]
    assert sorted(sum(blocks, [])) == list(range(10))
    flat = sum(blocks, [])
    assert flat == sorted(flat)  # contiguous ascending
    assert partition_shards(2, 5) == [[0], [1]]  # clamps to shards
    assert partition_shards(3, 1) == [[0, 1, 2]]


def make_direct_cluster(workers=0):
    scenario = BASE if workers == 0 else with_workers(BASE, workers)
    workload = load_workload("zipf", scale=0.1, seed=SEED, **WORKLOAD_PARAMS)
    return build_cluster(scenario, workload), workload.compiled


def kernel_runs(servers, compiled, plan, stop=None, **kwargs):
    """One kernel call's runs over ``[0, stop)`` of ``compiled`` for
    ``servers``."""
    runs, _ = replay_runs(
        servers,
        compiled.app_table,
        compiled.replay_columns(),
        plan.shard_ids,
        compiled.app_ids,
        0,
        len(compiled) if stop is None else stop,
        **kwargs,
    )
    return runs


def owned_lookup(cluster, shards):
    lookup = np.zeros(cluster.shards, dtype=bool)
    lookup[list(shards)] = True
    return lookup


def test_kernel_owned_blocks_add_up_to_the_whole_window():
    whole_cluster, compiled = make_direct_cluster()
    plan = build_routing_plan(
        compiled, whole_cluster.ring, whole_cluster.replication
    )
    whole = kernel_runs(whole_cluster.servers, compiled, plan)

    split_cluster, _ = make_direct_cluster()
    split = []
    for block in partition_shards(split_cluster.shards, 3):
        servers = {shard: split_cluster.servers[shard] for shard in block}
        split.extend(
            kernel_runs(
                servers,
                compiled,
                plan,
                owned=owned_lookup(split_cluster, block),
            )
        )
    # Contiguous blocks in worker order concatenate to the serial run
    # order, tally for tally -- what lets the pool skip a re-sort.
    assert split == whole
    # The engines processed everything; the *registries* stay empty
    # until the tallies are flushed (the parent's job).
    assert all(
        not server.stats.by_app_class for server in split_cluster.servers
    )
    flush_runs(split_cluster.servers, compiled.app_table, split)
    flush_runs(whole_cluster.servers, compiled.app_table, whole)
    assert [
        counters_snapshot(s.stats) for s in split_cluster.servers
    ] == [counters_snapshot(s.stats) for s in whole_cluster.servers]


def test_kernel_dead_shards_tally_without_engines():
    cluster, compiled = make_direct_cluster()
    plan = build_routing_plan(compiled, cluster.ring, cluster.replication)
    runs = kernel_runs(cluster.servers, compiled, plan, stop=1_000, dead={1})
    dead_runs = [run for run in runs if run[0] == 1]
    assert dead_runs
    for _, _, tallies in dead_runs:
        for packed, count in tallies.items():
            assert packed >> 2 == OUTCOME_DEAD
            assert count > 0
    # Dead shard 1 tallied every request routed to it, and its engines
    # never saw one; the live shards' tallies hold no dead outcome.
    on_dead = int((plan.shard_ids[:1_000] == 1).sum())
    assert sum(sum(tallies.values()) for _, _, tallies in dead_runs) == on_dead
    assert cluster.servers[1].memory_in_use() == 0
    for shard, _, tallies in runs:
        if shard != 1:
            assert all(packed >> 2 != OUTCOME_DEAD for packed in tallies)


def test_kernel_skips_unowned_shards():
    cluster, compiled = make_direct_cluster()
    plan = build_routing_plan(compiled, cluster.ring, cluster.replication)
    servers = {0: cluster.servers[0]}  # own shard 0 only
    owned = owned_lookup(cluster, [0])
    runs = kernel_runs(servers, compiled, plan, owned=owned)
    assert runs
    assert {run[0] for run in runs} == {0}
    # An empty window yields no runs at all.
    assert kernel_runs(servers, compiled, plan, stop=0, owned=owned) == []
    # Neither does a window holding only other shards' requests.
    nobody = owned_lookup(cluster, [])
    assert kernel_runs(servers, compiled, plan, owned=nobody) == []


def test_build_shard_servers_rejects_misnamed_factory():
    from repro.sim.defaults import GEOMETRY

    cluster, _ = make_direct_cluster()
    factory = cluster.engine_factories["zipf01"]
    with pytest.raises(ConfigurationError, match="factory"):
        build_shard_servers(
            GEOMETRY, [0], [("renamed", 1024.0, factory)]
        )


def test_build_shard_servers_builds_cold_owned_shards():
    from repro.sim.defaults import GEOMETRY

    cluster, _ = make_direct_cluster()
    apps = [
        (app, cluster.app_shares[app], cluster.engine_factories[app])
        for app in cluster.engine_factories
    ]
    servers = build_shard_servers(GEOMETRY, [1, 3], apps)
    assert set(servers) == {1, 3}
    for shard, server in servers.items():
        assert isinstance(server, CacheServer)
        assert server.memory_in_use() == 0
        assert set(server.engines) == set(cluster.engine_factories)
        for app, engine in server.engines.items():
            assert engine.budget_bytes == cluster.app_shares[app]


def test_scale_engine_budgets_parity_between_empty_and_full():
    # Budget arithmetic does not depend on what the engines hold:
    # scaling an empty engine set and a full one moves budget_bytes
    # identically (only eviction counts -- returned, not stored -- may
    # differ).
    cold, compiled = make_direct_cluster()
    warm, _ = make_direct_cluster()
    warm.replay_compiled(compiled)
    for target in (0.5, 1.75, 0.1):
        reference = cold.shard_budget(0) * target
        scale_engine_budgets(cold.servers[0].engines.values(), reference)
        scale_engine_budgets(warm.servers[0].engines.values(), reference)
        assert warm.shard_budget(0) == cold.shard_budget(0)
