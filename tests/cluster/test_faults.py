"""Fault injection: schedule validation, failover parity, recovery.

Three layers of guarantees:

1. **Schedules are data.** :class:`FaultEvent`/:class:`FaultSchedule`
   validate eagerly (unknown kinds, non-monotonic offsets, double
   crashes, restart-before-crash) and round-trip through JSON, so a
   scenario's ``faults`` block is sweepable like any other knob.
2. **No faults means no drift.** An empty or omitted schedule leaves the
   replay bit-identical to the fault-free run -- exact float equality
   down to per-shard per-(app, class) counters, for the production
   replay and the per-request reference alike.
3. **Faulted replays stay deterministic and conservative.** A Hypothesis
   property drives random schedules through the production replay and
   the reference (``tests/cluster/reference.py``) and asserts they
   agree bit for bit (including dead-shard tagging); with a
   rebalancer attached, total budget is conserved across every sampled
   epoch and no shard ever pierces the floor; a fixed seed reproduces
   the identical fault timeline.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import FaultEvent, FaultInjector, FaultSchedule
from repro.common.errors import ConfigurationError
from repro.sim import Scenario, load_workload, run_scenario
from tests.cluster.helpers import run_reference, schedules, shard_snapshots

SEED = 0

#: Two Zipf tenants, ~1,600 requests: big enough to cross fault barriers
#: and rebalance epochs, small enough for Hypothesis example counts.
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
    cluster={"shards": 4, "virtual_nodes": 4},
)

TOTAL = sum(
    load_workload(
        "zipf", scale=0.1, seed=SEED, **WORKLOAD_PARAMS
    ).requests_per_app.values()
)


# ---------------------------------------------------------------------------
# Schedules are validated, serializable data
# ---------------------------------------------------------------------------


def test_event_round_trips_through_json():
    event = FaultEvent(kind="crash", shard=2, at=500)
    clone = FaultEvent.from_dict(json.loads(json.dumps(event.to_dict())))
    assert clone == event


def test_schedule_round_trips_through_json():
    schedule = FaultSchedule(
        events=(
            FaultEvent("crash", 1, 100),
            FaultEvent("restart", 1, 300),
        ),
        policy="miss-through",
        sample_requests=50,
        recovery_epsilon=0.05,
    )
    clone = FaultSchedule.from_dict(
        json.loads(json.dumps(schedule.to_dict()))
    )
    assert clone == schedule
    assert clone.enabled


def test_empty_schedule_is_disabled():
    assert not FaultSchedule().enabled
    assert not FaultSchedule.from_dict({"events": []}).enabled
    assert FaultSchedule.from_dict(None) == FaultSchedule()


@pytest.mark.parametrize(
    "bad, match",
    [
        (dict(kind="explode", shard=0, at=1), "explode"),
        (dict(kind="crash", shard=-1, at=1), "shard"),
        (dict(kind="crash", shard=0, at=-5), r"fault event\.at"),
        (dict(kind="crash", shard=0), "missing"),
        (dict(kind="crash", shard=0, at=1, when=2), "unknown"),
    ],
)
def test_bad_events_rejected(bad, match):
    with pytest.raises(ConfigurationError, match=match):
        FaultEvent.from_dict(bad)


@pytest.mark.parametrize(
    "events, match",
    [
        (
            [("crash", 1, 200), ("restart", 1, 100)],
            "non-decreasing",
        ),
        (
            [("crash", 1, 100), ("crash", 1, 200)],
            "crashed twice",
        ),
        ([("restart", 1, 100)], "before any crash"),
    ],
)
def test_bad_schedules_rejected(events, match):
    with pytest.raises(ConfigurationError, match=match):
        FaultSchedule(
            events=tuple(FaultEvent(*event) for event in events)
        )


def test_schedule_shard_range_checked_against_cluster():
    schedule = FaultSchedule(events=(FaultEvent("crash", 7, 100),))
    with pytest.raises(ConfigurationError, match="7"):
        schedule.validate_for(4)


def test_schedule_must_keep_one_shard_live():
    schedule = FaultSchedule(
        events=(FaultEvent("crash", 0, 100), FaultEvent("crash", 1, 100))
    )
    with pytest.raises(ConfigurationError, match="live"):
        schedule.validate_for(2)
    schedule.validate_for(3)  # a third shard survives


def test_scenario_normalizes_faults_block():
    scenario = BASE.replace(
        faults={"events": [{"kind": "crash", "shard": 1, "at": 100}]}
    )
    assert scenario.faults["policy"] == "failover"
    assert scenario.faults["events"][0]["at"] == 100
    assert "faults-failoverx1" in scenario.label()
    clone = Scenario.from_dict(json.loads(scenario.to_json()))
    assert clone == scenario


def test_single_shard_cluster_rejects_enabled_schedule():
    # Crashing the only shard trips the at-least-one-live invariant.
    with pytest.raises(ConfigurationError, match="live"):
        BASE.replace(
            cluster={"shards": 1},
            faults={"events": [{"kind": "crash", "shard": 0, "at": 10}]},
        )


# ---------------------------------------------------------------------------
# No faults means no drift (production replay and reference)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "run",
    [lambda scenario: run_scenario(scenario, keep_server=True), run_reference],
    ids=["production", "reference"],
)
def test_empty_schedule_bit_identical_to_no_faults(run):
    plain = run(BASE)
    gated = run(BASE.replace(faults={"events": []}))
    assert gated.hit_rates == plain.hit_rates  # exact float equality
    assert gated.overall_hit_rate == plain.overall_hit_rate
    assert gated.requests == plain.requests
    assert shard_snapshots(gated) == shard_snapshots(plain)
    # Neither replay grew a faults section.
    assert plain.cluster_report["faults"] is None
    assert gated.cluster_report["faults"] is None


def test_empty_schedule_with_rebalance_bit_identical():
    rebalance = {"epoch_requests": 400, "policy": "shadow"}
    plain = run_scenario(
        BASE.replace(rebalance=rebalance), keep_server=True
    )
    gated = run_scenario(
        BASE.replace(rebalance=rebalance, faults={"events": []}),
        keep_server=True,
    )
    assert gated.hit_rates == plain.hit_rates
    assert shard_snapshots(gated) == shard_snapshots(plain)
    assert (
        gated.cluster_report["rebalance"]
        == plain.cluster_report["rebalance"]
    )


# ---------------------------------------------------------------------------
# Faulted replays: behavior and report
# ---------------------------------------------------------------------------

CRASH_AT = TOTAL // 4
RESTART_AT = TOTAL // 2

SCHEDULE = {
    "events": [
        {"kind": "crash", "shard": 1, "at": CRASH_AT},
        {"kind": "restart", "shard": 1, "at": RESTART_AT},
    ]
}


def test_failover_reroutes_instead_of_missing():
    result = run_scenario(BASE.replace(faults=SCHEDULE), keep_server=True)
    faults = result.cluster_report["faults"]
    assert faults["policy"] == "failover"
    assert faults["dead_requests"] == 0
    crash = faults["crashes"][0]
    assert crash == {
        "shard": 1,
        "crash_at": CRASH_AT,
        "pre_fault_hit_rate": crash["pre_fault_hit_rate"],
        "restart_at": RESTART_AT,
        "downtime_requests": RESTART_AT - CRASH_AT,
        "recovered_at": crash["recovered_at"],
        "time_to_recover": crash["time_to_recover"],
        "miss_cost": crash["miss_cost"],
        "budget_moved_bytes": 0.0,
    }
    # The dead shard served nothing during the outage, but every request
    # still landed somewhere: totals match the fault-free run.
    plain = run_scenario(BASE)
    assert result.requests == plain.requests
    assert faults["timeline"]["series"]["live_shards"].count(3.0) > 0


def test_miss_through_tags_dead_requests():
    result = run_scenario(
        BASE.replace(faults=dict(SCHEDULE, policy="miss-through")),
        keep_server=True,
    )
    faults = result.cluster_report["faults"]
    assert faults["policy"] == "miss-through"
    assert faults["dead_requests"] > 0
    # Dead requests land on the dead shard's own registry, tagged.
    shard_stats = result.cluster.servers[1].stats
    assert shard_stats.total.dead_requests == faults["dead_requests"]
    # Rerouting beats swallowing the requests.
    failover = run_scenario(BASE.replace(faults=SCHEDULE))
    assert failover.overall_hit_rate > result.overall_hit_rate


def test_crash_without_restart_reports_open_downtime():
    result = run_scenario(
        BASE.replace(
            faults={
                "events": [{"kind": "crash", "shard": 1, "at": CRASH_AT}]
            }
        )
    )
    crash = result.cluster_report["faults"]["crashes"][0]
    assert crash["restart_at"] is None
    assert crash["downtime_requests"] == TOTAL - CRASH_AT
    assert crash["recovered_at"] is None
    assert crash["time_to_recover"] is None


def test_recovery_is_finite_with_wide_epsilon():
    result = run_scenario(
        BASE.replace(faults=dict(SCHEDULE, recovery_epsilon=0.2))
    )
    crash = result.cluster_report["faults"]["crashes"][0]
    assert crash["recovered_at"] is not None
    assert crash["time_to_recover"] == crash["recovered_at"] - CRASH_AT
    assert crash["time_to_recover"] >= RESTART_AT - CRASH_AT


def test_replication_absorbs_failover():
    replicated = dict(BASE.cluster, replication=2)
    healthy = run_scenario(BASE.replace(cluster=replicated))
    faulted = run_scenario(
        BASE.replace(cluster=replicated, faults=SCHEDULE)
    )
    assert faulted.requests == healthy.requests
    assert faulted.cluster_report["faults"]["dead_requests"] == 0


def test_rebalancer_moves_and_restores_budget():
    rebalance = {"epoch_requests": 400, "policy": "shadow"}
    result = run_scenario(
        BASE.replace(faults=SCHEDULE, rebalance=rebalance),
        keep_server=True,
    )
    crash = result.cluster_report["faults"]["crashes"][0]
    assert crash["budget_moved_bytes"] > 0
    cluster = result.cluster
    total = cluster.memory_reserved()
    budgets = [
        sum(e.budget_bytes for e in server.engines.values())
        for server in cluster.servers
    ]
    assert sum(budgets) == pytest.approx(total)
    floor = cluster.rebalancer.floor_bytes
    assert all(b >= floor - 1e-6 for b in budgets)


def test_injector_rejects_out_of_range_schedule():
    from repro.sim.runner import build_cluster

    trace = load_workload("zipf", scale=0.1, seed=SEED, **WORKLOAD_PARAMS)
    cluster = build_cluster(BASE, trace)
    schedule = FaultSchedule(events=(FaultEvent("crash", 9, 10),))
    with pytest.raises(ConfigurationError, match="9"):
        FaultInjector(cluster, schedule)


def test_fixed_seed_reproduces_identical_fault_timeline():
    scenario = BASE.replace(
        faults=SCHEDULE,
        rebalance={"epoch_requests": 400, "policy": "shadow"},
    )
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.cluster_report["faults"] == second.cluster_report["faults"]
    assert first.hit_rates == second.hit_rates


#: Both timelines of a run whose crash (50) and restart (730) sit off
#: the 100-request sampling grid, with rebalance epochs (every 170) off
#: it too: ``(sampled times, sha256 of the timeline's sorted-key JSON)``.
#: The grid is anchored at the first barrier (50), so a barrier samples
#: only once it reaches the next grid point: 100, 200, 340, 700, 730,
#: ... are skipped.
TIMELINE_PINS = {
    "faults": (
        [50, 170, 300, 400, 500, 600, 680, 800, 850, 1000, 1100, 1190,
         1300, 1360, 1500, 1600],
        "94a4bddc1a2eb52f975b92195450c75e2d509f5520fb396c857dd7b568e19728",
    ),
    "rebalance": (
        list(range(10)),
        "46009fd1949f791707e75d1af10d01e98dbb33bcd0129841d6272c4a7dcb04c7",
    ),
}


def test_timeline_payloads_are_pinned():
    report = run_scenario(
        BASE.replace(
            faults={
                "events": [
                    {"kind": "crash", "shard": 1, "at": 50},
                    {"kind": "restart", "shard": 1, "at": 730},
                ],
                "sample_requests": 100,
            },
            rebalance={"epoch_requests": 170, "policy": "shadow"},
        )
    ).cluster_report
    for section, (times, digest) in TIMELINE_PINS.items():
        timeline = report[section]["timeline"]
        assert timeline["times"] == times, section
        text = json.dumps(timeline, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, section


# ---------------------------------------------------------------------------
# Property: the production replay agrees with the reference on any valid
# schedule, and the rebalancer conserves budget around crashes.
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    faults=schedules(TOTAL),
    replication=st.integers(min_value=1, max_value=2),
    rebalance=st.booleans(),
)
def test_faulted_replay_matches_reference(faults, replication, rebalance):
    extra = {}
    if rebalance:
        extra["rebalance"] = {"epoch_requests": 400, "policy": "shadow"}
    base = BASE.replace(
        cluster=dict(BASE.cluster, replication=replication),
        faults=faults,
        **extra,
    )
    fast = run_scenario(base, keep_server=True)
    reference = run_reference(base)
    assert fast.hit_rates == reference.hit_rates  # exact float equality
    assert fast.overall_hit_rate == reference.overall_hit_rate
    assert shard_snapshots(fast) == shard_snapshots(reference)
    assert fast.cluster_report == reference.cluster_report
    if rebalance:
        # Conservation every sampled epoch: the rebalancer's timeline
        # records each shard's budget at every epoch barrier, through
        # crashes (drain to floor, lend to the living) and restarts
        # (reclaim and rebuild).
        total = fast.cluster.memory_reserved()
        floor = fast.cluster.rebalancer.floor_bytes
        timeline = fast.cluster_report["rebalance"]["timeline"]
        shards = fast.cluster_report["shards"]
        for i, _ in enumerate(timeline["times"]):
            sampled = [
                timeline["series"][f"shard{s}"][i] for s in range(shards)
            ]
            assert sum(sampled) == pytest.approx(total)
            assert all(b >= floor - 1e-6 for b in sampled)
