"""Invariants of the epoch-driven cross-shard rebalancer.

Three properties must hold no matter how the knobs are turned: the
cluster's total budget is conserved across every epoch (credits move,
bytes are never created or destroyed), no shard ever drops below its
``min_shard_fraction`` floor, and a fixed seed yields a bit-identical
epoch timeline. Plus the config surface: validation, the
cluster-requires-rebalance coupling, sweep reachability, and the
shadow-policy/shadow-scheme interaction.
"""

from __future__ import annotations

import pytest

from repro.cluster import RebalanceConfig, Rebalancer
from repro.common.errors import ConfigurationError
from repro.sim import Scenario, Sweep, run_scenario
from tests.cluster.reference import shard_for

SHARDS = 4
MIN_FRACTION = 0.1

BASE = Scenario(
    scheme="hill",
    workload="flash-crowd",
    scale=0.1,
    seed=0,
    workload_params={
        "apps": 2,
        "num_keys": 8_000,
        "requests_per_app": 20_000,
        "crowd_fraction": 0.7,
    },
    cluster={"shards": SHARDS, "virtual_nodes": 4},
)

REBALANCE = {
    "epoch_requests": 200,
    "credit_bytes": 8192.0,
    "min_shard_fraction": MIN_FRACTION,
    "policy": "shadow",
}


def rebalanced(**overrides):
    block = dict(REBALANCE)
    block.update(overrides)
    return run_scenario(BASE.replace(rebalance=block))


# ---------------------------------------------------------------------------
# Config surface
# ---------------------------------------------------------------------------


def test_config_defaults_round_trip():
    config = RebalanceConfig.from_dict({"policy": "load"})
    assert config.enabled
    assert RebalanceConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize(
    "payload, match",
    [
        ({"epoch_requests": -1}, "epoch_requests"),
        ({"credit_bytes": 0}, "credit_bytes"),
        ({"min_shard_fraction": 1.0}, "min_shard_fraction"),
        ({"min_shard_fraction": -0.1}, "min_shard_fraction"),
        ({"policy": "psychic"}, "policy"),
        ({"epochs": 5}, "unknown rebalance fields"),
        ({"credit_bytes": "lots"}, "bad rebalance block"),
    ],
)
def test_config_rejects_bad_blocks(payload, match):
    with pytest.raises(ConfigurationError, match=match):
        RebalanceConfig.from_dict(payload)


def test_scenario_rejects_rebalance_without_cluster():
    with pytest.raises(ConfigurationError, match="cluster"):
        Scenario(workload="zipf", rebalance={"epoch_requests": 100})


def test_rebalancer_rejects_disabled_config():
    from repro.cluster import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(shards=2))
    with pytest.raises(ConfigurationError, match="disabled"):
        Rebalancer(cluster, RebalanceConfig(epoch_requests=0))


def test_scenario_normalizes_and_labels_rebalance():
    scenario = BASE.replace(rebalance={"epoch_requests": 100})
    assert scenario.rebalance["policy"] == "shadow"  # default filled in
    assert scenario.rebalance["min_shard_fraction"] == MIN_FRACTION
    assert scenario.label().endswith("/rebal-shadow")
    clone = Scenario.from_dict(scenario.to_dict())
    assert clone == scenario


# ---------------------------------------------------------------------------
# Invariants over the replay
# ---------------------------------------------------------------------------


def test_total_budget_conserved_across_every_epoch():
    result = rebalanced()
    rebalance = result.cluster_report["rebalance"]
    total = sum(result.budgets.values())
    timeline = rebalance["timeline"]
    assert timeline["times"]  # at least the epoch-0 baseline
    for i in range(len(timeline["times"])):
        epoch_total = sum(
            timeline["series"][f"shard{s}"][i] for s in range(SHARDS)
        )
        assert epoch_total == pytest.approx(total, rel=1e-9)
    assert sum(rebalance["shard_budgets"]) == pytest.approx(total, rel=1e-9)


def test_no_shard_ever_drops_below_the_floor():
    result = rebalanced(credit_bytes=65536.0)  # coarse credits press hard
    rebalance = result.cluster_report["rebalance"]
    total = sum(result.budgets.values())
    floor = MIN_FRACTION * total / SHARDS
    timeline = rebalance["timeline"]
    for s in range(SHARDS):
        low = min(timeline["series"][f"shard{s}"])
        assert low >= floor * (1.0 - 1e-9)
    assert rebalance["transfers"] > 0  # the floor was actually contested


def test_zero_floor_drained_shard_regrows_without_destroying_credit():
    # Regression: with min_shard_fraction=0 a donor can be drained to
    # exactly 0 bytes. If that shard later wins an epoch, the grow must
    # still apply (an early version silently dropped it after the
    # victim had already been shrunk, destroying the credit).
    from repro.cache.engines import FirstComeFirstServeEngine
    from repro.cache.slabs import SlabGeometry
    from repro.cluster import (
        Cluster,
        ClusterConfig,
        RebalanceConfig,
        Rebalancer,
    )
    from repro.workloads.compiled import CompiledTrace
    from repro.workloads.trace import Request

    geometry = SlabGeometry.default()
    cluster = Cluster(ClusterConfig(shards=2), geometry)
    cluster.add_app(
        "a",
        65536.0,
        lambda shard, share: FirstComeFirstServeEngine(
            "a", share, geometry
        ),
    )
    # A credit the size of a whole even share drains the donor in one
    # transfer once the floor is zero.
    cluster.attach_rebalancer(
        Rebalancer(
            cluster,
            RebalanceConfig(
                epoch_requests=100,
                credit_bytes=32768.0,
                min_shard_fraction=0.0,
                policy="load",
            ),
        )
    )
    hot = {shard: None for shard in range(2)}
    probe = 0
    while any(key is None for key in hot.values()):
        key = f"k{probe}"
        probe += 1
        shard = shard_for(cluster.ring, key)
        if hot[shard] is None:
            hot[shard] = key
    # Epoch 1: shard 0 wins and drains shard 1 to 0; epoch 2: shard 1
    # wins from a 0-byte budget and must get the credit back.
    requests = [
        Request(time=float(i), app="a", key=hot[0], op="get", value_size=64)
        for i in range(100)
    ] + [
        Request(
            time=100.0 + i, app="a", key=hot[1], op="get", value_size=64
        )
        for i in range(100)
    ]
    cluster.replay_compiled(CompiledTrace.compile(requests, geometry))
    rebalance = cluster.report().to_dict()["rebalance"]
    timeline = rebalance["timeline"]
    for i in range(len(timeline["times"])):
        epoch_total = sum(
            timeline["series"][f"shard{s}"][i] for s in range(2)
        )
        assert epoch_total == pytest.approx(65536.0, rel=1e-9)
    assert rebalance["transfers"] == 2
    # The drained shard is back above zero after winning.
    assert timeline["series"]["shard1"][1] == 0.0
    assert timeline["series"]["shard1"][2] > 0.0


def test_fixed_seed_yields_identical_epoch_timeline():
    first = rebalanced()
    second = rebalanced()
    assert (
        first.cluster_report["rebalance"]
        == second.cluster_report["rebalance"]
    )
    assert first.hit_rates == second.hit_rates  # exact float equality
    assert first.overall_hit_rate == second.overall_hit_rate


def test_epoch_count_matches_trace_length():
    result = rebalanced()
    rebalance = result.cluster_report["rebalance"]
    assert rebalance["epochs"] == result.requests // REBALANCE[
        "epoch_requests"
    ]
    # Timeline: epoch-0 baseline plus one sample per epoch.
    assert len(rebalance["timeline"]["times"]) == rebalance["epochs"] + 1


def test_hot_shard_budget_grows_and_hit_rate_beats_static():
    static = run_scenario(BASE)
    online = rebalanced()
    rebalance = online.cluster_report["rebalance"]
    even_share = sum(online.budgets.values()) / SHARDS
    assert max(rebalance["shard_budgets"]) > 1.5 * even_share
    assert online.overall_hit_rate > static.overall_hit_rate


def test_shadow_policy_is_inert_without_shadow_queues():
    # FCFS engines never report shadow hits, so the shadow signal stays
    # flat and no budget moves -- but the replay (and its timeline) still
    # runs.
    result = run_scenario(
        BASE.replace(scheme="default", rebalance=dict(REBALANCE))
    )
    rebalance = result.cluster_report["rebalance"]
    assert rebalance["transfers"] == 0
    assert rebalance["epochs"] > 0
    budgets = rebalance["shard_budgets"]
    assert budgets == [budgets[0]] * SHARDS  # still the even split


def test_one_shard_cluster_rebalances_to_nothing():
    result = run_scenario(
        BASE.replace(
            cluster={"shards": 1}, rebalance=dict(REBALANCE)
        )
    )
    rebalance = result.cluster_report["rebalance"]
    assert rebalance["transfers"] == 0  # never a donor shard
    assert rebalance["epochs"] > 0


def test_load_policy_moves_budget_toward_the_loaded_shard():
    result = rebalanced(policy="load")
    report = result.cluster_report
    rebalance = report["rebalance"]
    assert rebalance["transfers"] > 0
    loads = {
        load["shard"]: load["requests"] for load in report["shard_loads"]
    }
    busiest = max(loads, key=loads.get)
    budgets = rebalance["shard_budgets"]
    assert budgets[busiest] == max(budgets)


# ---------------------------------------------------------------------------
# Sweep and serialization reach
# ---------------------------------------------------------------------------


def test_sweep_axis_over_epoch_requests():
    sweep = Sweep(
        base=BASE.replace(rebalance=dict(REBALANCE)),
        axes={"rebalance.epoch_requests": [0, 400]},
    )
    grid = sweep.scenarios()
    assert [s.rebalance["epoch_requests"] for s in grid] == [0, 400]
    static_run, online = sweep.run().results
    assert static_run.cluster_report["rebalance"] is None
    assert online.cluster_report["rebalance"]["transfers"] > 0


def test_result_round_trips_rebalance_report():
    import json

    from repro.sim import ScenarioResult

    result = rebalanced()
    clone = ScenarioResult.from_dict(json.loads(result.to_json()))
    assert clone.cluster_report == result.cluster_report
    assert clone.scenario.rebalance == result.scenario.rebalance
    rendered = result.render()
    assert "rebalance (shadow)" in rendered
    assert "shard budgets now" in rendered
