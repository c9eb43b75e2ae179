"""run_scenario / replay_on_trace behaviour."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.sim import Scenario, load_workload, replay_on_trace, run_scenario

TINY = 0.012

ZIPF_PARAMS = {"apps": 2, "num_keys": 3_000, "requests_per_app": 25_000}


def zipf_scenario(**changes) -> Scenario:
    base = Scenario(workload="zipf", scale=0.1, workload_params=ZIPF_PARAMS)
    return base.replace(**changes) if changes else base


def test_run_scenario_reports_throughput_and_rates():
    result = run_scenario(zipf_scenario(scheme="default"))
    assert set(result.hit_rates) == {"zipf01", "zipf02"}
    assert all(0.0 <= rate <= 1.0 for rate in result.hit_rates.values())
    assert result.requests > 0
    assert result.gets == result.requests  # zipf default: all GETs
    assert result.elapsed_seconds > 0
    assert result.requests_per_sec > 0
    assert result.server is None  # not kept by default


def test_keep_server_exposes_engines_and_stats():
    result = run_scenario(zipf_scenario(), keep_server=True)
    assert set(result.server.engines) == {"zipf01", "zipf02"}
    assert result.stats.total.gets == result.gets


def test_partial_budgets_fall_back_to_reservations():
    """A budgets dict naming only some apps must not KeyError; unnamed
    apps keep their workload reservations."""
    trace = load_workload("zipf", scale=0.1, seed=0, **ZIPF_PARAMS)
    full = trace.reservations["zipf02"]
    result = run_scenario(zipf_scenario(budgets={"zipf01": 128 * 1024.0}))
    assert result.budgets["zipf01"] == 128 * 1024.0
    assert result.budgets["zipf02"] == full


def test_replay_apps_partial_budgets_fall_back():
    """Replaying an already-loaded trace (``replay_on_trace``, which the
    retired ``replay_apps`` helper wrapped) gets the same fallback."""
    trace = load_workload("memcachier", scale=TINY, seed=0, apps=[3, 19])
    server, stats, _elapsed = replay_on_trace(
        Scenario(
            scheme="default", scale=TINY, budgets={"app19": 256 * 1024.0}
        ),
        trace,
    )
    assert server.engines["app19"].budget_bytes == 256 * 1024.0
    assert server.engines["app03"].budget_bytes == pytest.approx(
        trace.reservations["app03"]
    )
    assert stats.total.gets > 0


def test_apps_subset_replays_only_those_apps():
    trace = load_workload("memcachier", scale=TINY, seed=0, apps=[3, 19])
    result = run_scenario(
        Scenario(
            workload="memcachier",
            workload_params={"apps": [3, 19]},
            scale=TINY,
            apps=["app19"],
        ),
        keep_server=True,
    )
    assert set(result.server.engines) == {"app19"}
    assert set(result.hit_rates) == {"app19"}
    assert result.requests == trace.requests_per_app["app19"]


def test_solver_plans_sentinel_matches_explicit_plans():
    from repro.sim import solver_plan_for_app

    trace = load_workload("memcachier", scale=TINY, seed=0, apps=[4])
    explicit = {
        app: solver_plan_for_app(trace, app) for app in trace.app_names
    }
    base = Scenario(
        workload="memcachier",
        workload_params={"apps": [4]},
        scale=TINY,
        scheme="planned",
    )
    via_sentinel = run_scenario(base.replace(plans="solver"))
    via_dict = run_scenario(base.replace(plans=explicit))
    assert via_sentinel.hit_rates == via_dict.hit_rates


def test_planned_scheme_without_plan_rejected():
    with pytest.raises(ConfigurationError, match="needs a plan"):
        run_scenario(zipf_scenario(scheme="planned"))


def test_solver_plans_respect_budget_overrides():
    """plans="solver" must size the plan to the overridden budget, not
    the workload reservation (a smaller override used to crash)."""
    base = Scenario(
        workload="memcachier",
        workload_params={"apps": [4]},
        scale=TINY,
        scheme="planned",
        plans="solver",
    )
    trace = load_workload("memcachier", scale=TINY, seed=0, apps=[4])
    small = trace.reservations["app04"] / 4
    result = run_scenario(
        base.replace(budgets={"app04": small}), keep_server=True
    )
    assert result.budgets["app04"] == small
    engine = result.server.engines["app04"]
    assert sum(engine.plan.values()) <= small + 1e-6


def test_unknown_app_name_rejected_cleanly():
    with pytest.raises(ConfigurationError, match="unknown app"):
        run_scenario(zipf_scenario(apps=["bogus"]))


def test_unknown_policy_rejected_cleanly():
    with pytest.raises(ConfigurationError, match="scenario.policy"):
        run_scenario(zipf_scenario(policy="bogus"))


def test_non_numeric_budget_rejected_cleanly():
    with pytest.raises(ConfigurationError, match="bad scenario spec"):
        Scenario.from_dict({"budgets": {"a": "lots"}})
    with pytest.raises(ConfigurationError, match="bad scenario spec"):
        Scenario.from_dict({"plans": {"a": {"x": 1.0}}})


def test_cliff_schemes_reject_non_lru_policy():
    """Cliff scaling assumes LRU rank semantics; a policy sweep over
    these schemes must fail loudly instead of silently running LRU."""
    for scheme in ("cliffhanger", "cliff-only", "hill-only"):
        with pytest.raises(ConfigurationError, match="only the 'lru'"):
            run_scenario(zipf_scenario(scheme=scheme, policy="arc"))


def test_baseline_fills_miss_reductions():
    default = run_scenario(zipf_scenario(scheme="default"))
    cliff = run_scenario(zipf_scenario(scheme="cliffhanger"), baseline=default)
    assert set(cliff.miss_reductions) == set(cliff.hit_rates)


def test_facebook_workload_replays():
    result = run_scenario(
        Scenario(
            workload="facebook",
            scale=0.05,
            workload_params={"requests_per_app": 40_000},
        )
    )
    assert set(result.hit_rates) == {"etc01"}
    # ETC mix: mostly GETs plus a SET share.
    assert 0 < result.gets < result.requests


def test_facebook_unique_keys_all_miss():
    result = run_scenario(
        Scenario(
            workload="facebook",
            scale=0.05,
            workload_params={
                "requests_per_app": 20_000,
                "unique_keys": True,
            },
        )
    )
    assert result.overall_hit_rate == 0.0
