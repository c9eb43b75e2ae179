"""Cluster scaling: hit rate and load balance versus shard count.

Beyond the paper's single-server tables: section 4.3 argues Cliffhanger
needs no cross-server coordination, so a cluster is just N independent
servers behind consistent hashing. This experiment replays two
time-dynamic workloads -- a phase-shifting Zipf tenant pair and a flash
crowd -- across growing shard counts and reports what sharding costs
(per-shard budget splits lower hit rates under skew) and what it cannot
fix (a flash crowd concentrates on whichever shards own the hot keys;
the imbalance column shows consistent hashing leaving it there).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    FLASH_CROWD_PARAMS,
    FULL_SCALE,
    ExperimentResult,
)
from repro.sim import Scenario, run_scenario

#: (workload name, workload params) pairs replayed per shard count.
WORKLOADS = (
    (
        "zipf-phases",
        {
            "apps": 2,
            "num_keys": 20_000,
            "requests_per_app": 80_000,
            "phases": [
                {"at": 0.0, "alpha": 1.1},
                {"at": 0.5, "alpha": 0.8, "offset": 20_000},
            ],
        },
    ),
    ("flash-crowd", FLASH_CROWD_PARAMS),
)


def run(
    scale: float = FULL_SCALE,
    seed: int = 0,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    scheme: str = "default",
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="cluster_scaling",
        title="Dynamic workloads across cluster shard counts",
        headers=[
            "workload",
            "shards",
            "hit_rate",
            "imbalance",
            "hot_shards",
            "max_shard_mb",
        ],
        paper_reference=(
            "section 4.3 (no coordination between servers); "
            "cluster layer is beyond the paper"
        ),
    )
    for workload, params in WORKLOADS:
        base = Scenario(
            scheme=scheme,
            workload=workload,
            scale=scale,
            seed=seed,
            workload_params=dict(params),
        )
        for shards in shard_counts:
            outcome = run_scenario(
                base.replace(cluster={"shards": int(shards)})
            )
            report = outcome.cluster_report
            max_shard_mb = max(
                load["memory_used_bytes"]
                for load in report["shard_loads"]
            ) / (1 << 20)
            result.rows.append(
                [
                    workload,
                    int(shards),
                    outcome.overall_hit_rate,
                    report["imbalance"],
                    len(report["hot_shards"]),
                    max_shard_mb,
                ]
            )
    result.notes = (
        f"scheme {scheme}; budgets split evenly per shard; imbalance is "
        "max/mean per-shard requests (1.0 = perfectly balanced)"
    )
    return result
