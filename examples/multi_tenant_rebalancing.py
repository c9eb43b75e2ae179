#!/usr/bin/env python3
"""Cross-application hill climbing on a shared server (paper section 3.3).

Three tenants share a server. One is heavily over-provisioned, one is
starved, one is balanced. The cross-application hill climber watches
app-level shadow monitors and drifts the reservations toward the
configuration that equalizes marginal utility -- the incremental version
of the paper's Table 3 optimization.

The workload and the server both come from the Scenario API: the ``zipf``
workload declares the three tenants, ``build_server`` instantiates their
engines, and the climber replays the compiled trace through the server.

    python examples/multi_tenant_rebalancing.py
"""

from repro.core.crossapp import CrossAppHillClimber
from repro.sim import Scenario, build_server, load_workload

MB = 1 << 20

#: Budgets deliberately mismatched to the working sets below.
RESERVATIONS = {"hoarder": 6 * MB, "starved": 1 * MB, "steady": 2 * MB}

SCENARIO = Scenario(
    workload="zipf",
    scheme="default",
    scale=1.0,
    seed=1,
    budgets=dict(RESERVATIONS),
    workload_params={
        "apps": {
            # Tiny working set: most of the hoarder's 6MB is dead weight.
            "hoarder": {"num_keys": 2_000, "alpha": 1.1},
            # Working set far beyond 1MB: every extra byte helps.
            "starved": {"num_keys": 60_000, "alpha": 0.9},
            "steady": {"num_keys": 10_000, "alpha": 1.0},
        },
        "value_size": 200,
        "requests_per_app": 150_000,
    },
)


def main() -> None:
    trace = load_workload(
        SCENARIO.workload,
        scale=SCENARIO.scale,
        seed=SCENARIO.seed,
        **SCENARIO.workload_params,
    )
    server = build_server(SCENARIO, trace)
    climber = CrossAppHillClimber(
        server, credit_bytes=8192, shadow_bytes=1 * MB, seed=3
    )

    print(f"{'app':<10} {'before MB':>10}")
    for app, budget in RESERVATIONS.items():
        print(f"{app:<10} {budget / MB:>10.2f}")

    stats = climber.replay_compiled(trace.compiled)

    print(f"\n{'app':<10} {'after MB':>10} {'hit rate':>10}")
    for app, budget in climber.budgets().items():
        print(
            f"{app:<10} {budget / MB:>10.2f} "
            f"{stats.app_hit_rate(app):>10.3f}"
        )
    moved = sum(
        abs(climber.budgets()[app] - RESERVATIONS[app])
        for app in RESERVATIONS
    ) / 2
    print(f"\nmemory moved between tenants: {moved / MB:.2f} MB")


if __name__ == "__main__":
    main()
