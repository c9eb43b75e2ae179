"""Scenario / ScenarioResult serialization and validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.sim import Scenario, ScenarioResult

APP_NAMES = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=12
)

FINITE_BUDGET = st.floats(
    min_value=1.0, max_value=1e12, allow_nan=False, allow_infinity=False
)

JSON_SCALAR = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)


def scenarios() -> st.SearchStrategy[Scenario]:
    plans = st.one_of(
        st.none(),
        st.just("solver"),
        st.dictionaries(
            APP_NAMES,
            st.dictionaries(
                st.integers(min_value=0, max_value=15),
                FINITE_BUDGET,
                max_size=4,
            ),
            max_size=3,
        ),
    )
    return st.builds(
        Scenario,
        scheme=st.sampled_from(
            ["default", "planned", "lsm", "hill", "cliffhanger"]
        ),
        workload=st.sampled_from(["memcachier", "zipf", "facebook"]),
        policy=st.sampled_from(["lru", "arc", "facebook"]),
        scale=st.floats(
            min_value=0.001, max_value=4.0, allow_nan=False, allow_infinity=False
        ),
        seed=st.integers(min_value=0, max_value=2**31),
        apps=st.one_of(st.none(), st.lists(APP_NAMES, max_size=4)),
        budgets=st.one_of(
            st.none(), st.dictionaries(APP_NAMES, FINITE_BUDGET, max_size=4)
        ),
        plans=plans,
        workload_params=st.dictionaries(APP_NAMES, JSON_SCALAR, max_size=4),
        engine_overrides=st.dictionaries(APP_NAMES, JSON_SCALAR, max_size=4),
        cluster=st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {},
                optional={
                    "shards": st.integers(min_value=1, max_value=32),
                    "hash_seed": st.integers(min_value=0, max_value=2**31),
                    "replication": st.integers(min_value=1, max_value=8),
                    "virtual_nodes": st.integers(min_value=1, max_value=128),
                },
            ),
        ),
        name=st.one_of(st.none(), st.text(max_size=20)),
    )


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_scenario_json_roundtrip(scenario):
    """to_json -> from_json reproduces the scenario exactly, including
    integer slab-class plan keys that JSON stringifies."""
    assert Scenario.from_json(scenario.to_json()) == scenario


@settings(max_examples=50, deadline=None)
@given(scenarios())
def test_scenario_dict_roundtrip_is_stable(scenario):
    once = Scenario.from_dict(scenario.to_dict())
    twice = Scenario.from_dict(once.to_dict())
    assert once == twice == scenario


def test_unknown_fields_rejected():
    with pytest.raises(ConfigurationError, match="unknown scenario fields"):
        Scenario.from_dict({"scheme": "default", "wokload": "zipf"})


def test_bad_scale_rejected():
    with pytest.raises(ConfigurationError, match="scale"):
        Scenario(scale=0.0)
    with pytest.raises(ConfigurationError, match="scale"):
        Scenario.from_dict({"scale": -1.0})


def test_bad_plans_string_rejected():
    with pytest.raises(ConfigurationError, match="plans"):
        Scenario(plans="sovler")


def test_cluster_block_normalized_with_defaults():
    scenario = Scenario(cluster={"shards": 4})
    assert scenario.cluster == {
        "shards": 4,
        "hash_seed": 0,
        "replication": 1,
        "virtual_nodes": 64,
        "parallel_workers": 0,
    }
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    assert "4shards" in scenario.label()


def test_bad_cluster_blocks_rejected():
    with pytest.raises(ConfigurationError, match="unknown cluster"):
        Scenario(cluster={"shard": 4})
    with pytest.raises(ConfigurationError, match="shard"):
        Scenario(cluster={"shards": 0})
    with pytest.raises(ConfigurationError, match="cluster"):
        Scenario.from_dict({"cluster": "four"})


def test_non_object_spec_rejected():
    with pytest.raises(ConfigurationError, match="object"):
        Scenario.from_dict(["default"])
    with pytest.raises(ConfigurationError, match="JSON"):
        Scenario.from_json("not json{")


def test_replace_returns_modified_copy():
    base = Scenario(scheme="default", scale=0.1)
    changed = base.replace(scheme="cliffhanger", seed=7)
    assert changed.scheme == "cliffhanger"
    assert changed.seed == 7
    assert changed.scale == 0.1
    assert base.scheme == "default"


def test_plan_keys_coerced_to_int():
    scenario = Scenario.from_dict(
        {"scheme": "planned", "plans": {"app01": {"3": 4096.0}}}
    )
    assert scenario.plans == {"app01": {3: 4096.0}}


def test_scenario_result_roundtrip():
    result = ScenarioResult(
        scenario=Scenario(scheme="cliffhanger", scale=0.05),
        hit_rates={"app01": 0.5},
        overall_hit_rate=0.5,
        requests=100,
        gets=90,
        elapsed_seconds=0.25,
        requests_per_sec=400.0,
        budgets={"app01": 1 << 20},
        miss_reductions={"app01": 0.1},
    )
    assert ScenarioResult.from_dict(result.to_dict()) == result


def test_miss_reductions_vs():
    def make(rates):
        return ScenarioResult(
            scenario=Scenario(),
            hit_rates=rates,
            overall_hit_rate=0.0,
            requests=0,
            gets=0,
            elapsed_seconds=1.0,
            requests_per_sec=0.0,
            budgets={},
        )

    baseline = make({"a": 0.5, "b": 1.0})
    better = make({"a": 0.75, "b": 1.0, "c": 0.9})
    reductions = better.miss_reductions_vs(baseline)
    assert reductions["a"] == pytest.approx(0.5)
    assert reductions["b"] == 0.0  # no baseline misses to remove
    assert "c" not in reductions  # not in the baseline
