"""Online cross-shard rebalancing vs. the static even split.

Beyond the paper: section 4.3 stops coordination at the server boundary,
so a cluster's per-shard budgets stay frozen at ``total/N`` forever. This
experiment replays a flash-crowd workload over a deliberately uneven ring
(few virtual nodes, so consistent hashing hands some shards a larger
slice of the keyspace) and compares three allocations:

* ``static``  -- the frozen even split (PR 3 behaviour);
* ``shadow``  -- epoch-driven budget stealing toward the shard with the
  most shadow hits (the paper's gradient signal, aggregated per server);
* ``load``    -- the same stealing toward the busiest shard (byte-blind,
  scheme-agnostic).

Expected: the hot shard's budget grows well past its even share
(``hot_budget_x``) and both online policies beat the static split's
aggregate hit rate -- memory follows demand that a static divide cannot
see.
"""

from __future__ import annotations

from repro.experiments.common import (
    FULL_SCALE,
    VIRTUAL_NODES,
    ExperimentResult,
    flash_crowd_base,
    flash_crowd_trace,
    rebalance_block,
)
from repro.sim import miss_reduction, run_scenario


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
        experiment_id="cluster_rebalance",
        title="Online cross-shard rebalancing under a flash crowd",
        headers=[
            "policy",
            "epoch_requests",
            "hit_rate",
            "miss_reduction",
            "transfers",
            "hot_budget_x",
            "imbalance",
        ],
        paper_reference=(
            "Algorithm 1 lifted to shard granularity; the paper stops at "
            "the single-server boundary (section 4.3)"
        ),
    )
    static = run_scenario(base)
    result.rows.append(
        [
            "static",
            0,
            static.overall_hit_rate,
            0.0,
            0,
            1.0,
            static.cluster_report["imbalance"],
        ]
    )
    for policy in ("shadow", "load"):
        block = rebalance_block(total_requests, even_share, policy)
        outcome = run_scenario(base.replace(rebalance=block))
        rebalance = outcome.cluster_report["rebalance"]
        result.rows.append(
            [
                policy,
                block["epoch_requests"],
                outcome.overall_hit_rate,
                miss_reduction(
                    static.overall_hit_rate, outcome.overall_hit_rate
                ),
                rebalance["transfers"],
                max(rebalance["shard_budgets"]) / even_share,
                outcome.cluster_report["imbalance"],
            ]
        )
    result.notes = (
        f"scheme {scheme}, {shards} shards, {VIRTUAL_NODES} vnodes (uneven "
        "ring on purpose); hot_budget_x is the largest final shard budget "
        "over the even split; miss_reduction is vs. the static row"
    )
    return result
