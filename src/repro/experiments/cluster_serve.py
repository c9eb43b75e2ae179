"""Live serving: the latency-vs-offered-rate curve, static vs. rebalanced.

Beyond the paper: the replay experiments answer "what would the hit
rate have been"; this one stands the cluster behind the asyncio
memcached-style server (:mod:`repro.serve`) and drives it **open-loop**
-- arrivals come from a clock, not from responses, so queueing delay
under overload lands in the percentiles instead of being absorbed by a
slowing client.

The run first calibrates the harness's sustainable completion rate with
an overdriven probe (queue backpressure, so every probe request
completes), then sweeps offered rates as fractions of that capacity
(below, at, and past saturation) in two modes:

* ``static``    -- the frozen even per-shard budget split;
* ``rebalance`` -- epoch-driven budget stealing toward the busiest
  shard (``load`` policy), with epochs advanced by the server's own
  ``process_batch`` calls.

Expected: p99 latency is flat while offered < capacity and blows up
past saturation (the open-loop backlog grows without bound for the rest
of the run), and at high load the rebalanced cluster's hit rate beats
the static split on the deliberately uneven ring -- the same
memory-follows-demand effect the offline ``cluster_rebalance``
experiment shows, now measured through the live data plane.
"""

from __future__ import annotations

from repro.experiments.common import (
    FULL_SCALE,
    VIRTUAL_NODES,
    ExperimentResult,
    flash_crowd_base,
    flash_crowd_trace,
    probe_capacity,
    rebalance_block,
)
from repro.sim import run_scenario

#: Offered rate as a fraction of the calibrated capacity; the last
#: point is deliberately past saturation.
RATE_FRACTIONS = (0.25, 0.5, 1.0, 2.0)


def run(
    scale: float = FULL_SCALE,
    seed: int = 0,
    shards: int = 4,
    scheme: str = "hill",
) -> ExperimentResult:
    trace = flash_crowd_trace(scale, seed)
    even_share = sum(trace.reservations.values()) / shards
    duration_s = max(0.3, min(1.5, 10.0 * scale))
    base = flash_crowd_base(scale, seed, shards, scheme)
    capacity, _ = probe_capacity(base, duration_s)

    result = ExperimentResult(
        experiment_id="cluster_serve",
        title="Open-loop serving: latency vs. offered rate",
        headers=[
            "mode",
            "offered_x",
            "offered_rate",
            "achieved_rate",
            "p50_ms",
            "p99_ms",
            "hit_rate",
        ],
        paper_reference=(
            "beyond the paper: the cluster behind a live memcached-style "
            "server instead of an offline replay"
        ),
    )
    for fraction in RATE_FRACTIONS:
        rate = max(200.0, fraction * capacity)
        requests = max(1, round(rate * duration_s))
        for mode in ("static", "rebalance"):
            scenario = base.replace(
                serve={
                    "rate": rate,
                    "duration_s": duration_s,
                    "arrivals": "poisson",
                },
                rebalance=(
                    rebalance_block(requests, even_share, "load")
                    if mode == "rebalance"
                    else None
                ),
            )
            outcome = run_scenario(scenario)
            serve = outcome.cluster_report["serve"]
            result.rows.append(
                [
                    mode,
                    fraction,
                    round(serve["offered_rate"]),
                    round(serve["achieved_rate"]),
                    serve["latency_ms"]["p50"],
                    serve["latency_ms"]["p99"],
                    outcome.overall_hit_rate,
                ]
            )
    result.notes = (
        f"scheme {scheme}, {shards} shards, {VIRTUAL_NODES} vnodes "
        f"(uneven ring on purpose), duration {duration_s:.1f}s/point, "
        f"calibrated capacity {capacity:,.0f} req/s; offered_x is the "
        "offered rate over capacity -- past 1.0 the open-loop p99 "
        "degrades; rebalance steals budget toward the busiest shard "
        "through the live batch path"
    )
    return result
