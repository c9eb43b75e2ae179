"""Chaos under load: crash the busiest shard mid-run, live.

Beyond the paper: ``cluster_faults`` measures crash/recovery on the
offline replay; this experiment fires the same fault schedule through
the **live** serving path (:mod:`repro.serve`) while the open-loop load
generator keeps arrivals coming -- the fault lands on the virtual-time
request-count axis, so a fixed seed reproduces the identical timeline.

The run calibrates the harness's sustainable rate, picks the busiest
shard from a fault-free reference run, then crashes it at 50% of a
heavily loaded run (restart at 62.5%) in three modes:

* ``none``           -- fault-free reference at the same offered rate;
* ``miss-through``   -- fire-once clients, dead shard's keys answered
  as tagged misses;
* ``failover+retry`` -- dead shard's keys re-routed to ring successors,
  clients retry BUSY responses with capped exponential backoff under a
  per-request deadline.

Expected: ``failover+retry`` ends the run with a hit rate above
``miss-through`` (successors absorb and re-warm the dead shard's
keyspace instead of eating every request as a miss) and its final
latency-timeline window's p99 recovers from the worst (outage) window.
"""

from __future__ import annotations

from repro.experiments.common import (
    FULL_SCALE,
    VIRTUAL_NODES,
    ExperimentResult,
    flash_crowd_base,
    probe_capacity,
)
from repro.sim import run_scenario

#: Offered rate over calibrated capacity. Just under the harness's
#: sustainable rate: the *crash* is what tips the run into overload
#: (successors absorb the dead shard's keys cold, retries add traffic),
#: and the post-restart windows show the queue draining back down --
#: at >= 1x the open-loop backlog would grow monotonically and the
#: final window could never recover.
OVERLOAD_FRACTION = 0.75

RETRY_BLOCK = {
    "max_attempts": 3,
    "base_backoff_s": 0.001,
    "max_backoff_s": 0.010,
    "budget": 0.5,
}


def _window_p99s(serve) -> tuple:
    """(worst, final) window p99 over occupied timeline windows."""
    timed = [
        w for w in serve["faults"]["latency_timeline"] if w["completed"] > 0
    ]
    if not timed:
        return 0.0, 0.0
    worst = max(w["p99_ms"] for w in timed)
    return worst, timed[-1]["p99_ms"]


def run(
    scale: float = FULL_SCALE,
    seed: int = 0,
    shards: int = 4,
    scheme: str = "hill",
) -> ExperimentResult:
    duration_s = max(0.3, min(1.5, 10.0 * scale))
    base = flash_crowd_base(scale, seed, shards, scheme)
    capacity, probe = probe_capacity(base, duration_s)
    rate = max(400.0, OVERLOAD_FRACTION * capacity)
    total = max(1, round(rate * duration_s))
    loads = probe.cluster_report["shard_loads"]
    busiest = max(range(len(loads)), key=lambda s: loads[s]["requests"])
    # Crash at the midpoint; restart at 62.5% so the back quarter of
    # the run shows the re-warmed shard (recovery needs room to land).
    crash_at = max(1, total // 2)
    restart_at = max(crash_at + 1, (5 * total) // 8)
    serve_block = {
        "rate": rate,
        "duration_s": duration_s,
        "arrivals": "poisson",
        "backpressure": "queue",
    }
    modes = (
        ("none", None, None),
        ("miss-through", "miss-through", None),
        ("failover+retry", "failover", dict(RETRY_BLOCK)),
    )
    result = ExperimentResult(
        experiment_id="serve_chaos",
        title="Chaos under load: crash the busiest shard mid-serve",
        headers=[
            "mode",
            "hit_rate",
            "completed",
            "errors",
            "retries",
            "dead_requests",
            "p99_ms",
            "outage_p99_ms",
            "final_p99_ms",
            "ttr_requests",
        ],
        paper_reference=(
            "beyond the paper: live fault injection over the serving "
            "path, with client retry/backoff and shard failover"
        ),
    )
    for mode, policy, retry in modes:
        scenario = base.replace(
            serve=dict(serve_block, retry=retry),
            faults=(
                {
                    "events": [
                        {"kind": "crash", "shard": busiest, "at": crash_at},
                        {
                            "kind": "restart",
                            "shard": busiest,
                            "at": restart_at,
                        },
                    ],
                    "policy": policy,
                }
                if policy is not None
                else None
            ),
        )
        outcome = run_scenario(scenario)
        serve = outcome.cluster_report["serve"]
        faults = serve.get("faults")
        if faults is not None:
            outage_p99, final_p99 = _window_p99s(serve)
            crashes = faults["crashes"]
            ttr = crashes[0]["time_to_recover"] if crashes else None
            dead = faults["dead_requests"]
        else:
            outage_p99 = final_p99 = None
            ttr = None
            dead = 0
        result.rows.append(
            [
                mode,
                outcome.overall_hit_rate,
                serve["completed"],
                serve["errors"],
                serve["retries"],
                dead,
                serve["latency_ms"]["p99"],
                outage_p99,
                final_p99,
                ttr,
            ]
        )
    result.notes = (
        f"scheme {scheme}, {shards} shards, {VIRTUAL_NODES} vnodes; "
        f"offered {rate:,.0f} req/s = {OVERLOAD_FRACTION:g}x calibrated "
        f"capacity; shard {busiest} (busiest) crashes at request "
        f"{crash_at:,} of {total:,} and restarts cold at {restart_at:,}; "
        "failover+retry should end with a hit rate above miss-through "
        "and a final-window p99 below the outage window's"
    )
    return result
