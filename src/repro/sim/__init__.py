"""``repro.sim``: the declarative simulation API.

Everything this reproduction can run -- single replays, the paper's
experiment suite, parameter sweeps -- is described by a serializable
:class:`Scenario` (workload x scheme x policy x budgets x scale x seed,
plus optional ``cluster`` and ``rebalance`` blocks for sharded replays
with online cross-shard budget stealing) and executed by
:func:`run_scenario` or, for grids, a :class:`Sweep` across worker
processes. New engine schemes and workloads plug in via the
:func:`register_scheme` / :func:`register_workload` decorators instead
of editing the harness.

Quickstart::

    from repro.sim import Scenario, Sweep, run_scenario

    result = run_scenario(
        Scenario(scheme="cliffhanger", workload="memcachier", scale=0.02)
    )
    print(result.overall_hit_rate, result.requests_per_sec)

    sweep = Sweep(
        base=Scenario(workload="zipf", scale=0.05),
        axes={"scheme": ["default", "cliffhanger"], "seed": [0, 1]},
    )
    for row in sweep.run(workers=4).results:
        print(row.scenario.name, row.overall_hit_rate)
"""

from repro.sim.defaults import BENCH_SCALE, FULL_SCALE, GEOMETRY
from repro.sim.registries import (
    Registry,
    SCHEMES,
    WORKLOADS,
    register_scheme,
    register_workload,
)
from repro.sim.scenario import Scenario, ScenarioResult, miss_reduction
from repro.sim.schemes import make_engine, scaled_cliff_kwargs
from repro.sim.planning import profile_app_classes, solver_plan_for_app
from repro.sim.workloads import SyntheticTrace, load_workload
from repro.sim import dynamic as _dynamic  # registers the dynamic workloads
from repro.sim.runner import (
    build_cluster,
    build_server,
    replay_on_cluster,
    replay_on_trace,
    run_scenario,
)
from repro.sim.sweep import Sweep, SweepResult, run_sweep

__all__ = [
    "BENCH_SCALE",
    "FULL_SCALE",
    "GEOMETRY",
    "Registry",
    "SCHEMES",
    "WORKLOADS",
    "Scenario",
    "ScenarioResult",
    "Sweep",
    "SweepResult",
    "SyntheticTrace",
    "build_cluster",
    "build_server",
    "load_workload",
    "make_engine",
    "miss_reduction",
    "profile_app_classes",
    "register_scheme",
    "register_workload",
    "replay_on_cluster",
    "replay_on_trace",
    "run_scenario",
    "run_sweep",
    "scaled_cliff_kwargs",
    "solver_plan_for_app",
]
