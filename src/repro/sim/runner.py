"""Executing scenarios: the :func:`run_scenario` facade.

The replay core shared by the experiment runners and the sweep
executor. One code path builds the server (scheme registry + per-app
budgets with reservation fallback), resolves solver plans, and replays
the compiled trace through the allocation-free fast path.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.cache.server import CacheServer
from repro.cache.stats import StatsRegistry
from repro.common.errors import ConfigurationError
from repro.sim.defaults import GEOMETRY
from repro.sim.planning import solver_plan_for_app
from repro.sim.scenario import SOLVER_PLANS, Scenario, ScenarioResult
from repro.sim.schemes import make_engine
from repro.sim.workloads import load_workload


def _resolve_budget(scenario: Scenario, trace, app: str) -> float:
    """Budget override if given for this app, else the reservation.

    ``budgets`` may be partial: apps it does not mention keep their
    workload reservation instead of raising.
    """
    if scenario.budgets is not None and app in scenario.budgets:
        return scenario.budgets[app]
    return trace.reservations[app]


def _resolve_plans(
    scenario: Scenario, trace, apps: List[str]
) -> Optional[Dict[str, Dict[int, float]]]:
    if scenario.plans == SOLVER_PLANS:
        # Plans must fit the budget the engine will actually get, which
        # a scenario's ``budgets`` may override per app.
        return {
            app: solver_plan_for_app(
                trace, app, budget=_resolve_budget(scenario, trace, app)
            )
            for app in apps
        }
    return scenario.plans


def _chosen_apps(scenario: Scenario, trace) -> List[str]:
    """The replayed apps, once every app the scenario names (in
    ``apps``, ``budgets`` or ``plans``) is known to be the workload's."""
    plans = scenario.plans if isinstance(scenario.plans, dict) else None
    for field, named in (
        ("apps", scenario.apps),
        ("budgets", scenario.budgets),
        ("plans", plans),
    ):
        unknown = [app for app in named or () if app not in trace.reservations]
        if unknown:
            raise ConfigurationError(
                f"unknown app(s) {', '.join(map(repr, unknown))} in {field} "
                f"for workload {scenario.workload!r}; "
                f"known: {', '.join(trace.app_names)}"
            )
    if scenario.apps is None:
        return list(trace.app_names)
    return list(scenario.apps)


def _compiled_for(scenario: Scenario, trace):
    """The workload's compiled trace, narrowed to the replayed apps."""
    chosen = _chosen_apps(scenario, trace)
    if set(chosen) != set(trace.app_names):
        return trace.compiled.select_apps(chosen)
    return trace.compiled


def build_server(
    scenario: Scenario,
    trace,
    plans: Optional[Dict[str, Dict[int, float]]] = None,
) -> CacheServer:
    """One engine per replayed app, built through the scheme registry."""
    chosen = _chosen_apps(scenario, trace)
    if plans is None:
        plans = _resolve_plans(scenario, trace, chosen)
    server = CacheServer(GEOMETRY)
    for app in chosen:
        server.add_app(
            make_engine(
                scenario.scheme,
                app,
                _resolve_budget(scenario, trace, app),
                scale=trace.scale,
                seed=scenario.seed,
                policy=scenario.policy,
                plan=plans.get(app) if plans else None,
                **scenario.engine_overrides,
            )
        )
    return server


class ScenarioEngineFactory:
    """One app's ``make_engine(shard, share)`` factory, as a picklable
    value object instead of a closure.

    The cluster keeps these factories for fault-time cold restarts, and
    a parallel replay ships them to worker processes -- under the
    ``spawn`` start method that means pickling, which a local closure
    cannot do. The scheme travels as its registry name and is resolved
    back through :func:`~repro.sim.schemes.make_engine` at call time.
    """

    def __init__(
        self,
        scheme: str,
        app: str,
        scale: float,
        seed: int,
        policy: Optional[str],
        plan: Optional[Dict[int, float]],
        shards: int,
        engine_overrides: Dict[str, object],
    ) -> None:
        self.scheme = scheme
        self.app = app
        self.scale = scale
        self.seed = seed
        self.policy = policy
        self.plan = plan
        self.shards = shards
        self.engine_overrides = dict(engine_overrides)

    def __call__(self, shard: int, share: float):
        shard_plan = (
            {cls: cap / self.shards for cls, cap in self.plan.items()}
            if self.plan is not None
            else None
        )
        return make_engine(
            self.scheme,
            self.app,
            share,
            scale=self.scale,
            seed=self.seed + shard,
            policy=self.policy,
            plan=shard_plan,
            **self.engine_overrides,
        )


def build_cluster(
    scenario: Scenario,
    trace,
    plans: Optional[Dict[str, Dict[int, float]]] = None,
):
    """A :class:`~repro.cluster.Cluster` with one engine per app per
    shard. Budgets (and explicit plans) split evenly across shards; each
    shard's engine seeds as ``seed + shard`` so shard 0 of a one-shard
    cluster is identical to the single-server engine."""
    from repro.cluster import Cluster, ClusterConfig

    chosen = _chosen_apps(scenario, trace)
    if plans is None:
        plans = _resolve_plans(scenario, trace, chosen)
    config = ClusterConfig.from_dict(scenario.cluster)
    cluster = Cluster(config, GEOMETRY)
    for app in chosen:
        make_engine = ScenarioEngineFactory(
            scenario.scheme,
            app,
            trace.scale,
            scenario.seed,
            scenario.policy,
            plans.get(app) if plans else None,
            config.shards,
            scenario.engine_overrides,
        )
        cluster.add_app(
            app, _resolve_budget(scenario, trace, app), make_engine
        )
    return cluster


def prepare_cluster(scenario: Scenario, trace):
    """The scenario's cluster, wired to replay or serve: its engines
    (:func:`build_cluster`), rebalancer and fault injector. It reads the
    trace's reservations but no request (unless the scenario asks for
    solver plans), so the live server starts without building one.

    A ``rebalance`` block with a nonzero ``epoch_requests`` attaches an
    online :class:`~repro.cluster.rebalance.Rebalancer` (seeded from the
    scenario seed); otherwise the static even split runs untouched. A
    non-empty ``faults`` schedule attaches a
    :class:`~repro.cluster.FaultInjector`; an empty one attaches
    nothing, so the run stays byte-identical to a scenario without the
    block (the parity tests pin it).
    """
    from repro.cluster import (
        FaultInjector,
        FaultSchedule,
        RebalanceConfig,
        Rebalancer,
    )

    cluster = build_cluster(scenario, trace)
    if scenario.rebalance is not None:
        rebalance = RebalanceConfig.from_dict(scenario.rebalance)
        if rebalance.enabled:
            cluster.attach_rebalancer(
                Rebalancer(cluster, rebalance, seed=scenario.seed)
            )
    if scenario.faults is not None:
        schedule = FaultSchedule.from_dict(scenario.faults)
        if schedule.enabled:
            cluster.attach_faults(FaultInjector(cluster, schedule))
    return cluster


def replay_on_cluster(
    scenario: Scenario, trace
) -> Tuple["Cluster", StatsRegistry, float]:
    """Replay an already-loaded trace across the scenario's cluster
    (built by :func:`prepare_cluster`).

    Returns ``(cluster, aggregated_stats, elapsed_seconds)``.

    Replays fetch their
    :class:`~repro.cluster.routing.RoutingPlan` through the global
    two-level trace cache, so a sweep over schemes/budgets/rebalance
    settings routes each (trace, ring) pair once -- including across
    worker processes sharing the on-disk store.
    """
    from repro.cluster import get_routing_plan

    compiled = _compiled_for(scenario, trace)
    cluster = prepare_cluster(scenario, trace)
    started = time.perf_counter()
    plan = get_routing_plan(compiled, cluster.ring, cluster.replication)
    stats = cluster.replay_compiled(compiled, plan=plan)
    elapsed = time.perf_counter() - started
    return cluster, stats, elapsed


def serve_on_cluster(
    scenario: Scenario, trace
) -> Tuple["Cluster", StatsRegistry, float, Dict[str, object]]:
    """Stand up the live server over the scenario's cluster and drive
    it open-loop per the ``serve`` block.

    Returns ``(cluster, aggregated_stats, elapsed_seconds,
    serve_payload)``. The cluster is built exactly like a replay
    (:func:`prepare_cluster`: same budgets, seeds, optional rebalancer
    and fault injector), but requests flow through the asyncio server's
    batch hot path (:meth:`~repro.cluster.Cluster.process_batch`)
    instead of the offline replay, so the stats afterwards reflect
    what the open-loop schedule actually delivered. The serve harness
    arms an attached fault injector on the virtual-time axis so the
    fault timeline is seed-deterministic even though wall-clock
    latencies are not.
    """
    from repro.serve import ServeConfig, run_serve

    compiled = _compiled_for(scenario, trace)
    cluster = prepare_cluster(scenario, trace)
    config = ServeConfig.from_dict(scenario.serve)
    started = time.perf_counter()
    report = run_serve(cluster, compiled, config, seed=scenario.seed)
    elapsed = time.perf_counter() - started
    return cluster, cluster.aggregate_stats(), elapsed, report.to_dict()


def replay_on_trace(
    scenario: Scenario, trace
) -> Tuple[CacheServer, StatsRegistry, float]:
    """Replay an already-loaded trace under ``scenario``'s scheme.

    Returns ``(server, stats, elapsed_seconds)``.
    """
    compiled = _compiled_for(scenario, trace)
    server = build_server(scenario, trace)
    started = time.perf_counter()
    server.replay_compiled(compiled)
    elapsed = time.perf_counter() - started
    return server, server.stats, elapsed


def run_scenario(
    scenario: Scenario,
    *,
    baseline: Optional[ScenarioResult] = None,
    keep_server: bool = False,
) -> ScenarioResult:
    """Load the workload, replay it, and report per-app results.

    Args:
        scenario: The declarative spec to execute.
        baseline: Optional previous result; when given, the returned
            result's ``miss_reductions`` compares against it per app.
        keep_server: Attach the live ``server``/``cluster`` and
            ``stats`` to the result for callers that need engine
            internals.

    Scenarios with a ``cluster`` block replay across N shard servers
    (consistent-hash key routing, budgets split per shard); the result
    carries the aggregate ``cluster_report``. Adding a ``rebalance``
    block turns the per-shard split online: budgets drift toward the
    neediest shards every epoch, and the cluster report's ``rebalance``
    section records the per-epoch allocation timeline. A ``serve``
    block replaces the offline replay entirely: the trace is served
    live through the asyncio server (see :mod:`repro.serve`) and the
    cluster report grows a ``serve`` section (latency percentiles,
    queue-depth timeline).
    """
    trace = load_workload(
        scenario.workload,
        scale=scenario.scale,
        seed=scenario.seed,
        **scenario.workload_params,
    )
    cluster = None
    serve_payload = None
    if scenario.cluster is not None:
        if scenario.serve is not None:
            cluster, stats, elapsed, serve_payload = serve_on_cluster(
                scenario, trace
            )
        else:
            cluster, stats, elapsed = replay_on_cluster(scenario, trace)
        server = None
    else:
        server, stats, elapsed = replay_on_trace(scenario, trace)
    apps = (
        list(scenario.apps) if scenario.apps is not None else list(trace.app_names)
    )
    total = stats.total
    requests = total.gets + total.sets
    cluster_report = None
    if cluster is not None:
        # Pass the merged registry the replay already built; report()
        # would otherwise re-merge every shard's counters.
        report = cluster.report(stats=stats)
        report.serve = serve_payload
        cluster_report = report.to_dict()
    result = ScenarioResult(
        scenario=scenario,
        hit_rates={app: stats.app_hit_rate(app) for app in apps},
        overall_hit_rate=total.hit_rate(),
        requests=requests,
        gets=total.gets,
        elapsed_seconds=elapsed,
        requests_per_sec=requests / elapsed if elapsed > 0 else 0.0,
        budgets={app: _resolve_budget(scenario, trace, app) for app in apps},
        cluster_report=cluster_report,
    )
    if baseline is not None:
        result.miss_reductions = result.miss_reductions_vs(baseline)
    if keep_server:
        result.server = server
        result.stats = stats
        result.cluster = cluster
    return result
