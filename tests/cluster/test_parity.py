"""The cluster parity anchor.

A 1-shard cluster is the single-server path plus a routing layer that
routes everything to shard 0 and an aggregation layer over one
registry -- so at seed 0 it must reproduce the plain
:func:`run_scenario` results *bit for bit* (exact float equality, no
tolerances), for every scheme the experiments use. A >= 4-shard
dynamic-workload scenario must also run end to end through
``run_scenario`` and the CLI. The same discipline covers online
rebalancing: a ``rebalance`` block that is omitted or disabled
(``epoch_requests: 0``) must leave the static-split replay untouched
down to per-(app, class) counters on every shard.
"""

from __future__ import annotations

import json

import pytest

from repro.sim import Scenario, Sweep, run_scenario
from tests.cluster.helpers import (
    counters_snapshot,
    run_reference,
    shard_snapshots,
)

SCALE = 0.02
SEED = 0

MEMCACHIER = Scenario(
    workload="memcachier",
    scale=SCALE,
    seed=SEED,
    workload_params={"apps": [3, 19]},
)


@pytest.mark.parametrize("scheme", ["default", "cliffhanger"])
def test_one_shard_cluster_bit_identical_to_server_path(scheme):
    base = MEMCACHIER.replace(scheme=scheme)
    plain = run_scenario(base, keep_server=True)
    clustered = run_scenario(
        base.replace(cluster={"shards": 1}), keep_server=True
    )
    assert clustered.hit_rates == plain.hit_rates  # exact float equality
    assert clustered.overall_hit_rate == plain.overall_hit_rate
    assert clustered.requests == plain.requests
    assert clustered.gets == plain.gets
    assert clustered.budgets == plain.budgets
    # Down to per-(app, slab class) counters.
    assert counters_snapshot(clustered.stats) == counters_snapshot(
        plain.stats
    )


def test_one_shard_solver_plans_bit_identical():
    base = MEMCACHIER.replace(scheme="planned", plans="solver")
    plain = run_scenario(base)
    clustered = run_scenario(base.replace(cluster={"shards": 1}))
    assert clustered.hit_rates == plain.hit_rates
    assert clustered.overall_hit_rate == plain.overall_hit_rate


def test_one_shard_report_is_consistent():
    result = run_scenario(MEMCACHIER.replace(cluster={"shards": 1}))
    report = result.cluster_report
    assert report["shards"] == 1
    assert report["imbalance"] == 1.0
    assert report["hot_shards"] == []
    assert report["requests"] == result.requests
    assert report["overall_hit_rate"] == result.overall_hit_rate


DYNAMIC = Scenario(
    workload="zipf-phases",
    scale=0.1,
    seed=SEED,
    workload_params={
        "apps": 2,
        "num_keys": 2_000,
        "requests_per_app": 8_000,
        "phases": [
            {"at": 0.0, "alpha": 1.1},
            {"at": 0.5, "alpha": 0.8, "offset": 2_000},
        ],
    },
    cluster={"shards": 4},
)


def test_multi_shard_dynamic_scenario_end_to_end():
    result = run_scenario(DYNAMIC)
    report = result.cluster_report
    assert report["shards"] == 4
    assert len(report["shard_loads"]) == 4
    assert all(load["requests"] > 0 for load in report["shard_loads"])
    assert (
        sum(load["requests"] for load in report["shard_loads"])
        == result.requests
    )
    assert 0.0 < result.overall_hit_rate < 1.0
    # Serialization round-trips with the cluster block and report.
    from repro.sim import ScenarioResult

    clone = ScenarioResult.from_dict(json.loads(result.to_json()))
    assert clone.scenario == result.scenario
    assert clone.cluster_report == report
    assert clone.scenario.cluster == DYNAMIC.cluster


def test_multi_shard_scenario_via_cli(capsys):
    from repro.experiments.cli import main

    spec = DYNAMIC.to_dict()
    assert main(["run", json.dumps(spec)]) == 0
    out = capsys.readouterr().out
    assert "4 shard(s)" in out
    assert "shard 3:" in out


def test_sweep_axis_over_shard_counts():
    sweep = Sweep(
        base=Scenario(
            workload="zipf",
            scale=0.1,
            workload_params={
                "apps": 2,
                "num_keys": 800,
                "requests_per_app": 6_000,
            },
        ),
        axes={"cluster.shards": [1, 2]},
    )
    grid = sweep.scenarios()
    assert [s.cluster["shards"] for s in grid] == [1, 2]
    assert grid[0].name == "shards=1"
    outcome = sweep.run()
    assert [r.cluster_report["shards"] for r in outcome] == [1, 2]


# ---------------------------------------------------------------------------
# Rebalance parity: without an *enabled* rebalance block, the cluster
# replay must stay on the static-split path, bit for bit.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rebalance",
    [
        {"epoch_requests": 0},
        {"epoch_requests": 0, "policy": "load", "credit_bytes": 65536.0},
    ],
    ids=["epoch-zero", "epoch-zero-load"],
)
def test_disabled_rebalance_bit_identical_to_static_split(rebalance):
    plain = run_scenario(DYNAMIC, keep_server=True)
    gated = run_scenario(
        DYNAMIC.replace(rebalance=rebalance), keep_server=True
    )
    assert gated.hit_rates == plain.hit_rates  # exact float equality
    assert gated.overall_hit_rate == plain.overall_hit_rate
    assert gated.requests == plain.requests
    assert gated.budgets == plain.budgets
    # Down to per-(app, slab class) counters, aggregated...
    assert counters_snapshot(gated.stats) == counters_snapshot(plain.stats)
    # ...and per shard server.
    assert shard_snapshots(gated) == shard_snapshots(plain)
    # The report shows no rebalance section either way.
    assert plain.cluster_report["rebalance"] is None
    assert gated.cluster_report["rebalance"] is None


def test_one_shard_disabled_rebalance_still_matches_server_path():
    plain = run_scenario(MEMCACHIER, keep_server=True)
    gated = run_scenario(
        MEMCACHIER.replace(
            cluster={"shards": 1}, rebalance={"epoch_requests": 0}
        ),
        keep_server=True,
    )
    assert gated.hit_rates == plain.hit_rates
    assert gated.overall_hit_rate == plain.overall_hit_rate
    assert counters_snapshot(gated.stats) == counters_snapshot(plain.stats)


# ---------------------------------------------------------------------------
# Replay-vs-reference parity: the production replay must reproduce the
# naive per-request reference (``tests/cluster/reference.py``) bit for
# bit, through the full scenario layer -- static splits, replication > 1,
# and the epoch-driven rebalance path.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cluster",
    [
        {"shards": 4},
        {"shards": 4, "replication": 2},
        {"shards": 3, "replication": 3, "hash_seed": 7, "virtual_nodes": 8},
    ],
    ids=["static", "replicated", "replicated-uneven-ring"],
)
def test_scenario_replay_bit_identical_to_reference(cluster):
    base = DYNAMIC.replace(cluster=cluster)
    fast = run_scenario(base, keep_server=True)
    reference = run_reference(base)
    assert fast.hit_rates == reference.hit_rates  # exact float equality
    assert fast.overall_hit_rate == reference.overall_hit_rate
    assert fast.requests == reference.requests
    assert counters_snapshot(fast.stats) == counters_snapshot(
        reference.stats
    )
    assert shard_snapshots(fast) == shard_snapshots(reference)
    assert fast.cluster_report == reference.cluster_report


def test_rebalance_scenario_replay_bit_identical_to_reference():
    base = DYNAMIC.replace(
        scheme="hill",
        cluster={"shards": 4, "virtual_nodes": 4},
        rebalance={"epoch_requests": 2000, "policy": "shadow"},
    )
    fast = run_scenario(base, keep_server=True)
    reference = run_reference(base)
    assert fast.hit_rates == reference.hit_rates
    assert fast.overall_hit_rate == reference.overall_hit_rate
    assert shard_snapshots(fast) == shard_snapshots(reference)
    # Same epochs, same transfers, same per-epoch budget timeline.
    assert (
        fast.cluster_report["rebalance"]
        == reference.cluster_report["rebalance"]
    )
