"""Sweep grid expansion and execution (serial and parallel)."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.sim import Scenario, Sweep, run_sweep

TINY_ZIPF = {
    "apps": 2,
    "num_keys": 800,
    "requests_per_app": 6_000,
}


def tiny_sweep(axes=None) -> Sweep:
    return Sweep(
        base=Scenario(workload="zipf", scale=0.1, workload_params=TINY_ZIPF),
        axes=axes
        or {
            "scheme": ["default", "cliffhanger"],
            "seed": [0, 1],
        },
    )


def test_grid_expansion_order_and_names():
    sweep = tiny_sweep()
    grid = sweep.scenarios()
    assert len(sweep) == len(grid) == 4
    # First axis varies slowest, like nested loops.
    assert [(s.scheme, s.seed) for s in grid] == [
        ("default", 0),
        ("default", 1),
        ("cliffhanger", 0),
        ("cliffhanger", 1),
    ]
    assert grid[0].name == "scheme=default,seed=0"
    # Expansion is deterministic.
    assert grid == sweep.scenarios()


def test_dotted_axes_reach_nested_fields():
    sweep = tiny_sweep(
        axes={
            "workload_params.num_keys": [500, 1000],
            "engine_overrides.credit_bytes": [1024.0],
            "budgets.zipf01": [64 * 1024.0],
        }
    )
    grid = sweep.scenarios()
    assert len(grid) == 2
    assert grid[0].workload_params["num_keys"] == 500
    assert grid[1].workload_params["num_keys"] == 1000
    for scenario in grid:
        assert scenario.engine_overrides == {"credit_bytes": 1024.0}
        assert scenario.budgets == {"zipf01": 64 * 1024.0}
        # The base's other workload params survive the axis write.
        assert scenario.workload_params["requests_per_app"] == 6_000


def test_deep_dotted_axis_leaves_the_base_untouched():
    """``to_dict`` copies nested dicts, so an axis three levels down
    (``workload_params.apps.<app>.*``) cannot write through into the
    base scenario."""
    sweep = Sweep(
        base=Scenario(
            workload="zipf",
            workload_params={"apps": {"zipf01": {"alpha": 0.9}}},
        ),
        axes={"workload_params.apps.zipf01.alpha": [0.7, 1.1]},
    )
    grid = sweep.scenarios()
    assert [
        s.workload_params["apps"]["zipf01"]["alpha"] for s in grid
    ] == [0.7, 1.1]
    assert [s.label() for s in grid] == ["alpha=0.7", "alpha=1.1"]
    assert sweep.base.workload_params["apps"]["zipf01"]["alpha"] == 0.9


def test_bad_axes_rejected():
    with pytest.raises(ConfigurationError, match="list of values"):
        Sweep(base=Scenario(), axes={"scheme": "default"})
    with pytest.raises(ConfigurationError, match="no values"):
        Sweep(base=Scenario(), axes={"scheme": []})
    with pytest.raises(ConfigurationError, match="non-dict"):
        Sweep(
            base=Scenario(), axes={"scheme.nested": ["x"]}
        ).scenarios()


def test_serial_run_results_in_grid_order():
    sweep = tiny_sweep()
    outcome = sweep.run()
    assert outcome.workers == 1
    assert len(outcome) == 4
    labels = [r.scenario.name for r in outcome]
    assert labels == [s.name for s in sweep.scenarios()]
    assert outcome.total_requests == sum(r.requests for r in outcome)
    assert outcome.elapsed_seconds > 0


def test_parallel_results_identical_to_serial():
    """Worker processes must reproduce the serial results bit for bit,
    in the same deterministic order."""
    sweep = tiny_sweep()
    serial = sweep.run()
    parallel = sweep.run(workers=2)
    assert parallel.workers == 2
    assert [r.scenario for r in parallel] == [r.scenario for r in serial]
    assert [r.hit_rates for r in parallel] == [r.hit_rates for r in serial]
    assert [r.requests for r in parallel] == [r.requests for r in serial]


def test_spawn_workers_identical_to_serial(tmp_path, monkeypatch):
    """The pool pins an explicit mp context: under spawn, workers
    re-import everything yet must attach to the parent's trace-cache
    directory (not re-read the environment) and reproduce the serial
    results bit for bit."""
    from repro.workloads import compiled

    monkeypatch.setattr(
        compiled.GLOBAL_TRACE_CACHE, "directory", tmp_path
    )
    # Make the env disagree with the parent's configured directory so an
    # env-re-reading spawn worker would provably diverge.
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    sweep = tiny_sweep(axes={"seed": [0, 1]})
    serial = sweep.run()
    spawned = sweep.run(workers=2, start_method="spawn")
    assert spawned.workers == 2
    assert [r.scenario for r in spawned] == [r.scenario for r in serial]
    assert [r.hit_rates for r in spawned] == [r.hit_rates for r in serial]
    assert [r.requests for r in spawned] == [r.requests for r in serial]
    # The workers shared the parent's on-disk store: the compiles they
    # wrote landed in tmp_path, not wherever the env pointed.
    assert any(tmp_path.iterdir())


def test_bad_start_method_rejected():
    from repro.common.mp import get_mp_context

    with pytest.raises(ConfigurationError, match="start method"):
        get_mp_context("threads")


def test_run_sweep_spec_roundtrip():
    spec = {
        "base": {
            "workload": "zipf",
            "scale": 0.1,
            "workload_params": TINY_ZIPF,
        },
        "axes": {"scheme": ["default", "lsm"]},
        "workers": 1,
    }
    outcome = run_sweep(spec)
    assert len(outcome) == 2
    assert {r.scenario.scheme for r in outcome} == {"default", "lsm"}
    rendered = outcome.render()
    assert "scheme=default" in rendered
    assert "2 scenarios" in rendered


def test_sweep_spec_unknown_fields_rejected():
    with pytest.raises(ConfigurationError, match="unknown sweep fields"):
        Sweep.from_dict({"base": {}, "axis": {}})


def test_spec_workers_key_is_wired_through():
    """Regression: from_dict whitelisted 'workers' but silently dropped
    it, so CLI sweep specs always ran serially."""
    spec = {
        "base": {
            "workload": "zipf",
            "scale": 0.1,
            "workload_params": TINY_ZIPF,
        },
        "axes": {"seed": [0, 1]},
        "workers": 2,
    }
    sweep = Sweep.from_dict(spec)
    assert sweep.workers == 2
    # run() defaults to the spec's workers (no speedup assert: the
    # container may have a single CPU)...
    outcome = sweep.run()
    assert outcome.workers == 2
    # ...and an explicit argument still overrides the spec.
    assert sweep.run(workers=1).workers == 1


def test_bad_workers_rejected():
    with pytest.raises(ConfigurationError, match="workers"):
        Sweep.from_dict({"base": {}, "workers": 0})
    with pytest.raises(ConfigurationError, match="workers"):
        Sweep.from_dict({"base": {}, "workers": "four"})
