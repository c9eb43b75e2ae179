#!/usr/bin/env python3
"""Live serving: the cluster behind a memcached-style asyncio server.

A scenario's ``serve`` block replaces the offline replay with a live
data plane: an asyncio server speaking the memcached text protocol
fronts the shard cluster (pipelined connections, a bounded request
queue, shed-vs-queue backpressure), and an open-loop generator replays
the workload's trace at a target request rate, measuring latency from
each request's *scheduled* arrival -- so overload shows up in the tail
percentiles instead of hiding in a slowing client. The server executes
every queue drain as one ``Cluster.process_batch`` call, which the
property tests prove bit-identical to handling requests one at a time.

This demo serves a short Zipf stream three ways:

1. comfortably under capacity (queue backpressure, low latency);
2. deliberately overdriven with ``queue`` backpressure -- nothing is
   rejected, so the open-loop backlog lands in p99;
3. the same overdrive with ``shed`` backpressure and a small queue --
   latency stays flat and the overload shows up as SERVER_ERROR busy
   rejections instead.

    python examples/serve_demo.py
"""

from repro.sim import Scenario, run_scenario

BASE = Scenario(
    scheme="default",
    workload="zipf",
    scale=0.05,
    seed=0,
    workload_params={"apps": 2, "num_keys": 2_000, "requests_per_app": 20_000},
    cluster={"shards": 4},
)

POINTS = [
    (
        "under capacity",
        {"rate": 3_000.0, "duration_s": 0.4, "backpressure": "queue"},
    ),
    (
        "overdriven, queue",
        {"rate": 45_000.0, "duration_s": 0.4, "backpressure": "queue"},
    ),
    (
        "overdriven, shed",
        {
            "rate": 45_000.0,
            "duration_s": 0.4,
            "backpressure": "shed",
            "queue_depth": 32,
            "max_batch": 64,
        },
    ),
]


def main() -> None:
    for title, serve in POINTS:
        result = run_scenario(BASE.replace(serve=dict(serve)))
        payload = result.cluster_report["serve"]
        latency = payload["latency_ms"]
        print(f"-- {title} --")
        print(
            f"  offered {payload['offered_rate']:,.0f} req/s, achieved "
            f"{payload['achieved_rate']:,.0f} req/s, shed "
            f"{payload['shed']:,} of {payload['requests']:,}"
        )
        print(
            f"  latency ms: p50 {latency['p50']:.2f}  "
            f"p99 {latency['p99']:.2f}  max {latency['max']:.2f}"
        )
    print(
        "\nOverload is a policy choice: 'queue' keeps every request and "
        "pays in tail latency; 'shed' keeps the tail flat and pays in "
        "rejections."
    )


if __name__ == "__main__":
    main()
