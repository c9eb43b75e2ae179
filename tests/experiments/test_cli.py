"""CLI contract tests: ``run`` / ``sweep`` / ``--list`` happy paths and
the exit-2 one-line diagnostics on configuration mistakes.

The CLI promises (module docstring of :mod:`repro.experiments.cli`) that
configuration errors -- malformed JSON, unknown scheme/workload/
experiment -- exit with status 2 and a single ``error: ...`` line on
stderr instead of a traceback. Nothing here replays at more than toy
scale.
"""

from __future__ import annotations

import io
import json
import math

import pytest

from repro.experiments.cli import main

#: A scenario spec small enough for a sub-second replay.
TINY_SCENARIO = {
    "workload": "zipf",
    "scale": 0.1,
    "seed": 0,
    "workload_params": {
        "apps": 1,
        "num_keys": 500,
        "requests_per_app": 3_000,
    },
}

TINY_SWEEP = {
    "base": TINY_SCENARIO,
    "axes": {"scheme": ["default", "hill"]},
}


def one_error_line(capsys):
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line]
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    return lines[0]


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------


def test_list_enumerates_experiments_schemes_and_workloads(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for heading in (
        "experiments:", "schemes:", "workloads:", "scenario blocks:"
    ):
        assert heading in out
    for entry in ("cluster_rebalance", "cliffhanger", "flash-crowd"):
        assert entry in out
    # New scenario-visible knobs surface in the listing.
    assert "parallel_workers" in out
    assert "partitioned_replay" not in out
    assert "policy (shadow|load)" in out
    assert "policy (arc|facebook|lru)" in out
    assert "faults:" in out
    assert "policy (failover|miss-through)" in out
    assert "recovery_epsilon" in out


def test_list_is_generated_from_the_declarations(capsys):
    """Every field of every spec block, every ``choices`` value and
    every registered scheme/workload with its note -- read off the
    declarations, so the listing cannot drift from them."""
    import dataclasses

    from repro.cluster import (
        ClusterConfig, FaultEvent, FaultSchedule, RebalanceConfig,
    )
    from tests.common.spec_fields import choices_of
    from repro.serve import ServeConfig
    from repro.sim import SCHEMES, WORKLOADS, Scenario

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for cls in (
        Scenario, ClusterConfig, RebalanceConfig, FaultSchedule, FaultEvent,
        ServeConfig,
    ):
        for field in dataclasses.fields(cls):
            assert field.name in out, (cls.__name__, field.name)
            for choice in choices_of(cls, field.name):
                assert choice in out, (cls.__name__, field.name, choice)
    for registry in (SCHEMES, WORKLOADS):
        for name in registry.names():
            assert f"  {name}: {registry.note(name)}\n" in out


def test_list_is_only_a_flag(capsys):
    """``--list`` is the one spelling: a bare ``list`` is read as a
    ``run`` target and refused like any unknown experiment id."""
    assert main(["list"]) == 2
    assert "'list' is not a known experiment id" in one_error_line(capsys)


def test_run_inline_scenario_spec(capsys):
    assert main(["run", json.dumps(TINY_SCENARIO)]) == 0
    out = capsys.readouterr().out
    assert "overall hit rate" in out


def test_run_spec_file_with_out_dir(tmp_path, capsys):
    spec_path = tmp_path / "scenario.json"
    spec_path.write_text(json.dumps(TINY_SCENARIO), encoding="utf-8")
    out_dir = tmp_path / "results"
    assert main(["run", str(spec_path), "--out", str(out_dir)]) == 0
    saved = json.loads((out_dir / "scenario.json").read_text())
    assert saved["scenario"]["workload"] == "zipf"
    assert 0.0 < saved["overall_hit_rate"] < 1.0


def test_run_spec_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps(TINY_SCENARIO))
    )
    assert main(["run", "-"]) == 0
    assert "overall hit rate" in capsys.readouterr().out


def test_run_rebalance_scenario_reports_transfers(capsys):
    spec = dict(TINY_SCENARIO)
    spec["scheme"] = "hill"
    spec["cluster"] = {"shards": 2, "virtual_nodes": 4}
    spec["rebalance"] = {"epoch_requests": 300, "credit_bytes": 4096.0}
    assert main(["run", json.dumps(spec)]) == 0
    out = capsys.readouterr().out
    assert "rebalance (shadow)" in out
    assert "shard budgets now" in out


def test_sweep_inline_spec(capsys):
    assert main(["sweep", json.dumps(TINY_SWEEP)]) == 0
    out = capsys.readouterr().out
    assert "2 scenarios" in out
    assert "scheme=default" in out
    assert "scheme=hill" in out


def test_sweep_with_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert (
        main(["sweep", json.dumps(TINY_SWEEP), "--out", str(out_dir)]) == 0
    )
    saved = json.loads((out_dir / "sweep.json").read_text())
    assert len(saved["results"]) == 2


# ---------------------------------------------------------------------------
# Exit-2 diagnostics
# ---------------------------------------------------------------------------


def test_bad_json_spec_exits_2_with_one_line(capsys):
    assert main(["run", "{not json"]) == 2
    assert "invalid JSON spec" in one_error_line(capsys)


def test_unknown_scheme_exits_2(capsys):
    spec = dict(TINY_SCENARIO)
    spec["scheme"] = "does-not-exist"
    assert main(["run", json.dumps(spec)]) == 2
    assert "does-not-exist" in one_error_line(capsys)


def test_unknown_workload_exits_2(capsys):
    spec = dict(TINY_SCENARIO)
    spec["workload"] = "mystery-trace"
    assert main(["run", json.dumps(spec)]) == 2
    assert "mystery-trace" in one_error_line(capsys)


def test_unknown_memcachier_workload_param_exits_2(capsys):
    spec = {"workload": "memcachier", "scale": 0.012, "workload_params": {"foo": 1}}
    assert main(["run", json.dumps(spec)]) == 2
    assert one_error_line(capsys) == "error: unknown memcachier workload params: foo"


@pytest.mark.parametrize(
    "budget, shown",
    [(1e400, "inf"), (math.nan, "nan"), (0, "0"), (-5, "-5"), (True, "True")],
)
def test_non_finite_or_non_positive_budget_exits_2_naming_the_app(
    capsys, budget, shown
):
    spec = {"workload": "zipf", "scale": 0.012, "budgets": {"zipf01": budget}}
    assert main(["run", json.dumps(spec)]) == 2
    assert one_error_line(capsys) == (
        f"error: budgets.zipf01 must be a finite number > 0, got {shown}"
    )


@pytest.mark.parametrize(
    "entry, shown",
    [(True, "True"), (math.nan, "nan"), (1e400, "inf"), (-100, "-100")],
)
def test_non_finite_negative_or_boolean_plan_entry_exits_2_naming_it(
    capsys, entry, shown
):
    """A plan entry is a byte capacity: a boolean is not read as 1 byte
    and NaN is not replayed; the error names the app and the class."""
    spec = {
        "workload": "zipf", "scale": 0.012, "scheme": "planned",
        "plans": {"zipf01": {"0": entry}, "zipf02": {"0": 65536}},
    }
    assert main(["run", json.dumps(spec)]) == 2
    assert one_error_line(capsys) == (
        f"error: plans.zipf01.0 must be a finite number >= 0, got {shown}"
    )


def test_zero_plan_entry_replays(capsys):
    spec = {
        "workload": "zipf", "scale": 0.012, "scheme": "planned",
        "plans": {"zipf01": {"0": 0}, "zipf02": {"0": 65536}},
    }
    assert main(["run", json.dumps(spec)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("field", ["budgets", "plans"])
def test_app_the_workload_lacks_exits_2(capsys, field):
    """A typo'd app in ``budgets`` or ``plans`` is refused, as one in
    ``apps`` is, instead of being silently ignored."""
    value = 65536 if field == "budgets" else {"0": 65536}
    spec = {"workload": "zipf", "scale": 0.012, field: {"zipf1": value}}
    assert main(["run", json.dumps(spec)]) == 2
    assert one_error_line(capsys) == (
        f"error: unknown app(s) 'zipf1' in {field} for workload 'zipf'; "
        "known: zipf01, zipf02"
    )


def test_partial_plans_exit_2_naming_the_planless_app(capsys):
    spec = {
        "workload": "zipf", "scale": 0.012, "scheme": "planned",
        "plans": {"zipf01": {"0": 65536}},
    }
    assert main(["run", json.dumps(spec)]) == 2
    assert one_error_line(capsys) == (
        "error: planned engine needs a plan for app 'zipf02'"
    )


def test_unknown_experiment_id_exits_2(capsys):
    assert main(["run", "fig99"]) == 2
    assert "fig99" in one_error_line(capsys)


def test_unknown_scenario_field_exits_2(capsys):
    spec = dict(TINY_SCENARIO)
    spec["rebalancing"] = {"epoch_requests": 5}  # typo'd field
    assert main(["run", json.dumps(spec)]) == 2
    assert "rebalancing" in one_error_line(capsys)


@pytest.mark.parametrize(
    "block, names",
    [
        ({"serve": {"rate": "fast"}}, "serve.rate"),
        ({"serve": {"rate": True}}, "serve.rate"),
        ({"serve": {"duration_s": [4]}}, "serve.duration_s"),
        ({"serve": {"arrivals": 5}}, "serve.arrivals"),
        ({"cluster": {"shards": "two"}}, "cluster.shards"),
        ({"rebalance": {"credit_bytes": "lots"}}, "rebalance.credit_bytes"),
        ({"faults": {"sample_requests": 1.5}}, "faults.sample_requests"),
        ({"seed": "zero"}, "scenario.seed"),
    ],
)
def test_bad_scalar_in_any_block_exits_2_naming_the_field(
    capsys, block, names
):
    spec = {**TINY_SCENARIO, "cluster": {"shards": 2}, **block}
    assert main(["run", json.dumps(spec)]) == 2
    assert names in one_error_line(capsys)


@pytest.mark.parametrize(
    "block, name",
    [
        ({"scale": math.inf}, "scenario.scale"),
        ({"serve": {"rate": math.inf}}, "serve.rate"),
        ({"serve": {"duration_s": -math.inf}}, "serve.duration_s"),
        (
            {"rebalance": {"epoch_requests": 100, "credit_bytes": math.inf}},
            "rebalance.credit_bytes",
        ),
    ],
)
def test_non_finite_number_exits_2_naming_the_field(capsys, block, name):
    """JSON's ``Infinity`` passes every lower bound, so it is refused as
    not finite (it used to end in an OverflowError traceback, or in a
    rebalancer moving "inf KB" credits)."""
    text = json.dumps({**TINY_SCENARIO, "cluster": {"shards": 2}, **block})
    assert "Infinity" in text
    assert main(["run", text]) == 2
    assert f"{name} must be a finite number" in one_error_line(capsys)


def test_retired_partitioned_replay_knob_exits_2(capsys):
    spec = dict(TINY_SCENARIO)
    spec["cluster"] = {"shards": 2, "partitioned_replay": False}
    assert main(["run", json.dumps(spec)]) == 2
    assert (
        "unknown cluster fields: partitioned_replay"
        in one_error_line(capsys)
    )


def test_rebalance_without_cluster_exits_2(capsys):
    spec = dict(TINY_SCENARIO)
    spec["rebalance"] = {"epoch_requests": 100}
    assert main(["run", json.dumps(spec)]) == 2
    assert "cluster" in one_error_line(capsys)


#: A valid faulted cluster spec the malformed variants below mutate.
FAULTED_SCENARIO = {
    **TINY_SCENARIO,
    "cluster": {"shards": 4},
    "faults": {
        "events": [
            {"kind": "crash", "shard": 1, "at": 100},
            {"kind": "restart", "shard": 1, "at": 200},
        ]
    },
}


def test_faulted_scenario_spec_runs(capsys):
    assert main(["run", json.dumps(FAULTED_SCENARIO)]) == 0
    out = capsys.readouterr().out
    assert "faults (failover)" in out
    assert "shard 1 down @ 100" in out


def test_faults_without_cluster_exits_2(capsys):
    spec = dict(FAULTED_SCENARIO)
    del spec["cluster"]
    assert main(["run", json.dumps(spec)]) == 2
    assert "cluster" in one_error_line(capsys)


def test_faults_bad_shard_index_exits_2(capsys):
    spec = dict(FAULTED_SCENARIO)
    spec["faults"] = {"events": [{"kind": "crash", "shard": 9, "at": 100}]}
    assert main(["run", json.dumps(spec)]) == 2
    assert "shard" in one_error_line(capsys)


def test_faults_non_monotonic_offsets_exit_2(capsys):
    spec = dict(FAULTED_SCENARIO)
    spec["faults"] = {
        "events": [
            {"kind": "crash", "shard": 1, "at": 200},
            {"kind": "restart", "shard": 1, "at": 100},
        ]
    }
    assert main(["run", json.dumps(spec)]) == 2
    assert "non-decreasing" in one_error_line(capsys)


def test_faults_restart_before_crash_exits_2(capsys):
    spec = dict(FAULTED_SCENARIO)
    spec["faults"] = {
        "events": [{"kind": "restart", "shard": 1, "at": 100}]
    }
    assert main(["run", json.dumps(spec)]) == 2
    assert "restart" in one_error_line(capsys)


def test_faults_unknown_event_kind_exits_2(capsys):
    spec = dict(FAULTED_SCENARIO)
    spec["faults"] = {
        "events": [{"kind": "explode", "shard": 1, "at": 100}]
    }
    assert main(["run", json.dumps(spec)]) == 2
    assert "explode" in one_error_line(capsys)


def test_faults_unknown_policy_exits_2(capsys):
    spec = dict(FAULTED_SCENARIO)
    spec["faults"] = dict(spec["faults"], policy="ignore")
    assert main(["run", json.dumps(spec)]) == 2
    assert "ignore" in one_error_line(capsys)


#: A serve+faults spec (chaos serving) the malformed variants mutate.
CHAOS_SCENARIO = {
    **FAULTED_SCENARIO,
    "serve": {
        "rate": 4000.0,
        "duration_s": 0.05,
        "arrivals": "fixed",
    },
}


def test_chaos_serve_spec_runs(capsys):
    assert main(["run", json.dumps(CHAOS_SCENARIO)]) == 0
    out = capsys.readouterr().out
    assert "serve (" in out
    assert "faults (failover)" in out
    assert "p99 timeline" in out


def test_retry_unknown_field_exits_2(capsys):
    """The serve block has no ``retry``: its clients send each request
    once, so the block is refused like any unknown field."""
    spec = dict(CHAOS_SCENARIO)
    spec["serve"] = dict(spec["serve"], retry={"max_attempts": 3})
    assert main(["run", json.dumps(spec)]) == 2
    assert one_error_line(capsys) == "error: unknown serve fields: retry"


def test_serve_bad_degradation_fields_exit_2(capsys):
    spec = dict(CHAOS_SCENARIO)
    spec["serve"] = dict(spec["serve"], queue_deadline_s=-1.0)
    assert main(["run", json.dumps(spec)]) == 2
    assert "queue_deadline_s" in one_error_line(capsys)
    spec["serve"] = dict(CHAOS_SCENARIO["serve"], max_inflight=-2)
    assert main(["run", json.dumps(spec)]) == 2
    assert "max_inflight" in one_error_line(capsys)


@pytest.mark.parametrize(
    "serve, message",
    [
        ({"transport": "tcp"}, "unknown serve fields: transport"),
        ({"queue_deadline_s": 0.2}, "unknown serve fields: queue_deadline_s"),
        (
            {"retry": {"max_attempts": 2, "hedge_after_s": 0.005}},
            "unknown serve fields: retry",
        ),
        (
            {"retry": {"max_attempts": 2, "deadline_s": 0.1}},
            "unknown serve fields: retry",
        ),
    ],
    ids=["transport", "queue_deadline_s", "hedge_after_s", "deadline_s"],
)
def test_retired_serve_fields_exit_2(capsys, serve, message):
    spec = dict(CHAOS_SCENARIO)
    spec["serve"] = dict(spec["serve"], **serve)
    assert main(["run", json.dumps(spec)]) == 2
    assert one_error_line(capsys) == f"error: {message}"


def test_serve_removed_per_request_knob_exits_2(capsys):
    spec = dict(CHAOS_SCENARIO)
    spec["serve"] = dict(spec["serve"], per_request=True)
    assert main(["run", json.dumps(spec)]) == 2
    assert one_error_line(capsys) == (
        "error: unknown serve fields: per_request"
    )


def test_bad_sweep_spec_exits_2(capsys):
    sweep = dict(TINY_SWEEP)
    sweep["axis"] = sweep.pop("axes")  # typo'd field
    assert main(["sweep", json.dumps(sweep)]) == 2
    assert "axis" in one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", json.dumps(dict(TINY_SCENARIO, seed=-1))],
        ["run", json.dumps(TINY_SCENARIO), "--seed", "-1"],
        ["run", "tab6", "--scale", "0.012", "--seed", "-1"],
    ],
    ids=["spec", "spec-flag", "experiment-flag"],
)
def test_negative_seed_exits_2(capsys, argv):
    assert main(argv) == 2
    assert one_error_line(capsys) == "error: scenario.seed must be >= 0, got -1"


@pytest.mark.parametrize(
    "experiment, scale", [("fig1", "nan"), ("fig1", "inf"), ("tab6", "nan")]
)
def test_non_finite_experiment_scale_exits_2(capsys, experiment, scale):
    assert main(["run", experiment, "--scale", scale]) == 2
    assert one_error_line(capsys) == (
        f"error: bad scenario block: scenario.scale must be a finite "
        f"number, got {scale}"
    )


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_workers_flag_follows_the_spec_rule(capsys, monkeypatch, workers):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused sweep runs nothing")

    monkeypatch.setattr("repro.sim.sweep.ProcessPoolExecutor", refuse)
    monkeypatch.setattr("repro.sim.sweep.run_scenario", refuse)
    assert main(["sweep", json.dumps(TINY_SWEEP), "--workers", str(workers)]) == 2
    assert one_error_line(capsys) == (
        f"error: workers must be a positive integer, got {workers}"
    )
