"""Shard crash and recovery: static split vs. online rebalancing.

Beyond the paper: Cliffhanger's no-coordination design (section 4.3)
means a cluster survives shard loss purely through ring failover and
local re-convergence -- and a restarted shard comes back *cold*, the
hit-rate-cliff regime the paper's machinery measures. This experiment
replays a flash-crowd workload, crashes the busiest shard mid-crowd, and
restarts it while the crowd is still hot, comparing three runs:

* ``healthy``   -- no faults, the reference ceiling;
* ``static``    -- the crash under the frozen even split: survivors
  absorb the failed-over keys with their original budgets, and the
  restarted shard refills cold at its old size;
* ``rebalance`` -- the same crash with the epoch-driven rebalancer: the
  dead shard's budget is redistributed to the survivors for the duration
  of the outage, restored at restart, and the climber keeps following
  demand through recovery.

Expected: the rebalancing run recovers faster (smaller
``time_to_recover``) and loses fewer hits to the fault (smaller
``miss_cost``) than the static split -- memory following the failed-over
demand is exactly what a frozen split cannot do.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.common import (
    FULL_SCALE,
    VIRTUAL_NODES,
    ExperimentResult,
    flash_crowd_base,
    flash_crowd_trace,
    rebalance_block,
)
from repro.sim import ScenarioResult, miss_reduction, run_scenario

#: Crash/restart as fractions of the trace. The flash crowd burns over
#: [0.4, 0.6) of the stream, so both events land mid-crowd: the shard
#: dies while hot and comes back cold with the crowd still running.
CRASH_FRACTION = 0.45
RESTART_FRACTION = 0.55


def hot_shard_faults(
    healthy: ScenarioResult, total_requests: int
) -> Dict[str, Any]:
    """The ``faults`` block that crashes the busiest shard of the
    ``healthy`` run mid-crowd and restarts it cold: the deterministic
    worst case the ring's uneven split hands us."""
    loads = healthy.cluster_report["shard_loads"]
    hot_shard = int(max(loads, key=lambda load: load["requests"])["shard"])
    return {
        "events": [
            {
                "kind": "crash",
                "shard": hot_shard,
                "at": int(total_requests * CRASH_FRACTION),
            },
            {
                "kind": "restart",
                "shard": hot_shard,
                "at": int(total_requests * RESTART_FRACTION),
            },
        ],
        "policy": "failover",
    }


def run(
    scale: float = FULL_SCALE,
    seed: int = 0,
    shards: int = 4,
    scheme: str = "hill",
) -> ExperimentResult:
    trace = flash_crowd_trace(scale, seed)
    total_requests = sum(trace.requests_per_app.values())
    even_share = sum(trace.reservations.values()) / shards
    base = flash_crowd_base(scale, seed, shards, scheme)
    result = ExperimentResult(
        experiment_id="cluster_faults",
        title="Shard crash and recovery: static split vs. rebalancing",
        headers=[
            "run",
            "hit_rate",
            "vs_healthy",
            "downtime",
            "time_to_recover",
            "miss_cost",
            "transfers",
        ],
        paper_reference=(
            "no-coordination failover (section 4.3) meets the hit-rate "
            "cliff (section 2): a restarted shard refills cold"
        ),
    )
    healthy = run_scenario(base)
    result.rows.append(
        ["healthy", healthy.overall_hit_rate, 0.0, 0, 0, 0.0, 0]
    )
    faults = hot_shard_faults(healthy, total_requests)
    hot_shard = faults["events"][0]["shard"]
    rebalance = rebalance_block(total_requests, even_share, "shadow")
    for name, extra in (
        ("static", {"faults": faults}),
        ("rebalance", {"faults": faults, "rebalance": rebalance}),
    ):
        outcome = run_scenario(base.replace(**extra))
        report = outcome.cluster_report
        crash = report["faults"]["crashes"][0]
        recovered = crash["time_to_recover"]
        result.rows.append(
            [
                name,
                outcome.overall_hit_rate,
                miss_reduction(
                    healthy.overall_hit_rate, outcome.overall_hit_rate
                ),
                crash["downtime_requests"],
                recovered if recovered is not None else -1,
                crash["miss_cost"],
                (
                    report["rebalance"]["transfers"]
                    if report["rebalance"] is not None
                    else 0
                ),
            ]
        )
    result.notes = (
        f"scheme {scheme}, {shards} shards, {VIRTUAL_NODES} vnodes; shard "
        f"{hot_shard} (the busiest) crashes at "
        f"{int(total_requests * CRASH_FRACTION):,} and restarts at "
        f"{int(total_requests * RESTART_FRACTION):,} of "
        f"{total_requests:,} requests under the failover policy; "
        "time_to_recover counts requests from the crash until the "
        "rolling hit rate is back within epsilon of the pre-fault "
        "window (-1: not recovered); vs_healthy is the miss reduction "
        "against the no-fault run (negative = misses added by the fault)"
    )
    return result
