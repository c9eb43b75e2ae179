"""Legacy-path parity: the Scenario port must not move a single bit.

Rebuilds the fig6 and tab4 tables through the pre-redesign low-level
path -- direct engine construction, ``CacheServer.replay_compiled``,
explicit solver plans -- and asserts the rows match the Scenario-ported
runners exactly (not approximately) at seed 0.
"""

from __future__ import annotations

from repro.cache.server import CacheServer
from repro.experiments import fig6_cliffhanger, table4_combined
from repro.sim import (
    GEOMETRY,
    load_workload,
    make_engine,
    miss_reduction,
    solver_plan_for_app,
)

SCALE_FIG6 = 0.012
SCALE_TAB4 = 0.03
SEED = 0


def _legacy_replay(trace, scheme, plans=None, budgets=None, seed=0):
    """What the runners did before the Scenario API existed."""
    server = CacheServer(GEOMETRY)
    for app in trace.app_names:
        budget = budgets[app] if budgets else trace.reservations[app]
        server.add_app(
            make_engine(
                scheme,
                app,
                budget,
                scale=trace.scale,
                seed=seed,
                plan=plans.get(app) if plans else None,
            )
        )
    server.replay_compiled(trace.compiled)
    return server.stats


def test_fig6_rows_bit_identical_to_legacy_path():
    apps = [3, 9, 19]
    trace = load_workload("memcachier", scale=SCALE_FIG6, seed=SEED, apps=apps)
    names = trace.app_names

    default_stats = _legacy_replay(trace, "default")
    plans = {app: solver_plan_for_app(trace, app) for app in names}
    solver_stats = _legacy_replay(trace, "planned", plans=plans)
    cliffhanger_stats = _legacy_replay(trace, "cliffhanger", seed=SEED)

    legacy_rows = []
    for app in names:
        base = default_stats.app_hit_rate(app)
        cliff = cliffhanger_stats.app_hit_rate(app)
        legacy_rows.append(
            [
                app,
                "*" if trace.specs[app].has_cliff else "",
                base,
                solver_stats.app_hit_rate(app),
                cliff,
                miss_reduction(base, cliff),
            ]
        )

    ported = fig6_cliffhanger.run(scale=SCALE_FIG6, seed=SEED, apps=apps)
    assert ported.rows == legacy_rows  # exact float equality


def test_tab4_rows_bit_identical_to_legacy_path():
    trace = load_workload("memcachier", scale=SCALE_TAB4, seed=SEED, apps=[19])
    app = "app19"
    plan = table4_combined.pinned_plan(trace, app)
    total_budget = sum(plan.values())
    budgets = {app: total_budget}

    per_scheme = {}
    for scheme, _label in table4_combined.SCHEMES:
        per_scheme[scheme] = _legacy_replay(
            trace,
            scheme,
            plans={app: plan} if scheme == "planned" else None,
            budgets=budgets,
            seed=SEED,
        )

    legacy_rows = []
    for class_index in sorted(plan):
        row = [
            class_index,
            int(plan[class_index] / GEOMETRY.chunk_size(class_index)),
        ]
        for scheme, _label in table4_combined.SCHEMES:
            counter = per_scheme[scheme].class_counters_for(app).get(class_index)
            row.append(counter.hit_rate() if counter else 0.0)
        legacy_rows.append(row)
    total_row = ["total", int(total_budget)]
    for scheme, _label in table4_combined.SCHEMES:
        total_row.append(per_scheme[scheme].app_hit_rate(app))
    legacy_rows.append(total_row)

    ported = table4_combined.run(scale=SCALE_TAB4, seed=SEED)
    assert ported.rows == legacy_rows  # exact float equality
