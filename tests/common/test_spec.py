"""Runtime properties of the one spec codec (:mod:`repro.common.spec`).

These replace the retired ``scenario-schema-sync`` lint rule: what it
checked statically about hand-written ``to_dict`` / ``from_dict`` /
``known`` triples now holds by construction, and is asserted here
against every class that uses the codec.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    FaultEvent,
    FaultSchedule,
    RebalanceConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.spec import Spec
from repro.serve import ServeConfig
from repro.sim import Scenario
from tests.common.spec_fields import choices_of

SPEC_CLASSES = (
    ClusterConfig,
    RebalanceConfig,
    FaultEvent,
    FaultSchedule,
    ServeConfig,
    Scenario,
)

#: The config surface, pinned: a PR that adds a knob has to say so here.
FIELD_COUNTS = {
    ClusterConfig: 5,
    RebalanceConfig: 4,
    FaultEvent: 3,
    FaultSchedule: 4,
    ServeConfig: 3,
    Scenario: 15,
}

counts = st.integers(min_value=0, max_value=10_000)
fractions = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


def crash_restart_events(shards: int = 4):
    """Valid schedules: each shard alternates crash, restart, ...; one
    shard always stays up; offsets never decrease."""

    @st.composite
    def build(draw):
        down, events, offset = set(), [], 0
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            offset += draw(st.integers(min_value=0, max_value=500))
            shard = draw(st.integers(min_value=0, max_value=shards - 1))
            if shard in down:
                down.discard(shard)
                events.append(FaultEvent("restart", shard, offset))
            elif len(down) < shards - 1:
                down.add(shard)
                events.append(FaultEvent("crash", shard, offset))
        return tuple(events)

    return build()


fault_schedules = st.builds(
    FaultSchedule,
    events=crash_restart_events(),
    policy=st.sampled_from(choices_of(FaultSchedule, "policy")),
    sample_requests=counts,
    recovery_epsilon=fractions,
)
serve_configs = st.builds(
    ServeConfig,
    rate=positive,
    duration_s=positive,
    arrivals=st.sampled_from(choices_of(ServeConfig, "arrivals")),
)
cluster_configs = st.builds(
    ClusterConfig,
    shards=st.integers(min_value=4, max_value=32),
    hash_seed=counts,
    replication=st.integers(min_value=1, max_value=8),
    virtual_nodes=st.integers(min_value=1, max_value=128),
    parallel_workers=st.integers(min_value=0, max_value=8),
)
rebalance_configs = st.builds(
    RebalanceConfig,
    epoch_requests=counts,
    credit_bytes=positive,
    min_shard_fraction=fractions,
    policy=st.sampled_from(choices_of(RebalanceConfig, "policy")),
)
scenarios = st.builds(
    Scenario,
    scheme=st.sampled_from(["default", "hill", "cliffhanger"]),
    workload=st.sampled_from(["zipf", "memcachier"]),
    scale=positive,
    seed=counts,
    apps=st.one_of(st.none(), st.lists(st.sampled_from(["a", "b"]))),
    budgets=st.one_of(st.none(), st.dictionaries(st.text(max_size=4), positive)),
    plans=st.one_of(
        st.none(),
        st.just("solver"),
        st.dictionaries(
            st.text(max_size=4),
            st.dictionaries(st.integers(min_value=0, max_value=40), positive),
        ),
    ),
    workload_params=st.dictionaries(st.text(max_size=4), counts),
    cluster=cluster_configs.map(ClusterConfig.to_dict),
    rebalance=st.one_of(
        st.none(), rebalance_configs.map(RebalanceConfig.to_dict)
    ),
    faults=st.one_of(st.none(), fault_schedules.map(FaultSchedule.to_dict)),
    serve=st.one_of(st.none(), serve_configs.map(ServeConfig.to_dict)),
    name=st.one_of(st.none(), st.text(max_size=8)),
)
fault_events = st.builds(
    FaultEvent,
    kind=st.sampled_from(choices_of(FaultEvent, "kind")),
    shard=counts,
    at=counts,
)

INSTANCES = st.one_of(
    cluster_configs,
    rebalance_configs,
    fault_events,
    fault_schedules,
    serve_configs,
    scenarios,
)


def test_the_six_spec_classes_and_their_field_counts():
    for cls in SPEC_CLASSES:
        assert issubclass(cls, Spec)
        assert len(dataclasses.fields(cls)) == FIELD_COUNTS[cls], cls
        # The codec is inherited, never re-typed per class.
        assert "to_dict" not in vars(cls) and "from_dict" not in vars(cls)


@settings(max_examples=200, deadline=None)
@given(INSTANCES)
def test_round_trip_keys_and_unknown_fields(instance):
    cls = type(instance)
    payload = instance.to_dict()
    assert list(payload) == [f.name for f in dataclasses.fields(instance)]
    # JSON-safe all the way down, and a fixed point of the codec.
    assert cls.from_dict(json.loads(json.dumps(payload))) == instance
    assert cls.from_dict(payload).to_dict() == payload
    with pytest.raises(
        ConfigurationError,
        match=f"^unknown {re.escape(cls.BLOCK)} fields: zz_a, zz_b$",
    ):
        cls.from_dict({**payload, "zz_b": 1, "zz_a": 2})


@pytest.mark.parametrize(
    "cls", [cls for cls in SPEC_CLASSES if cls is not FaultEvent]
)
def test_none_and_empty_mean_defaults_and_non_mappings_are_refused(cls):
    assert cls.from_dict(None) == cls.from_dict({}) == cls()
    for bad in ([("shards", 2)], "four", 4):
        with pytest.raises(ConfigurationError, match="must be an object"):
            cls.from_dict(bad)


def test_required_fields_are_reported_by_name():
    with pytest.raises(ConfigurationError, match="missing field 'at'"):
        FaultEvent.from_dict({"kind": "crash", "shard": 0})
    with pytest.raises(ConfigurationError, match="missing field 'kind'"):
        FaultEvent.from_dict(None)


# ---------------------------------------------------------------------------
# One coercion rule (each of these escaped as a bare TypeError, or was
# silently accepted, before the codec)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, names",
    [
        (lambda: ServeConfig.from_dict({"rate": "fast"}), "serve.rate"),
        (lambda: ServeConfig.from_dict({"rate": True}), "serve.rate"),
        (lambda: ServeConfig(duration_s=[4]), "serve.duration_s"),
        (lambda: ServeConfig(arrivals=["fixed"]), "serve.arrivals"),
        (lambda: ClusterConfig(shards=True), "cluster.shards"),
        (lambda: RebalanceConfig(credit_bytes="lots"), "rebalance.credit_bytes"),
        (lambda: RebalanceConfig(credit_bytes=float("nan")), "rebalance.credit_bytes"),
        (lambda: FaultEvent("crash", "one", 5), "fault event.shard"),
        (lambda: FaultSchedule(events=5), "faults.events"),
        (lambda: FaultSchedule(sample_requests={}), "faults.sample_requests"),
        (lambda: Scenario(scale="big"), "scenario.scale"),
        (lambda: Scenario(seed=1.5), "scenario.seed"),
        (
            lambda: Scenario(cluster={"shards": 2}, serve={"rate": "fast"}),
            "serve.rate",
        ),
    ],
)
def test_bad_scalars_name_their_field(build, names):
    with pytest.raises(ConfigurationError, match=re.escape(names)):
        build()


def test_json_scalars_coerce_the_same_way_in_every_block():
    assert ClusterConfig.from_dict({"shards": "4"}).shards == 4
    serve = Scenario(cluster={"shards": 2}, serve={"rate": "4000"}).serve
    assert serve["rate"] == 4000.0
    assert ServeConfig(rate=4000).to_dict()["rate"] == 4000.0
    assert isinstance(ServeConfig(rate=4000).rate, float)
    assert ClusterConfig.from_dict({"shards": 3.0}).shards == 3
    assert FaultEvent.from_dict({"kind": "crash", "shard": "1", "at": 7.0}) == (
        FaultEvent("crash", 1, 7)
    )
    assert Scenario(name=7).name == "7"


def test_nested_blocks_normalize_and_tuples_accept_dicts():
    scenario = Scenario(cluster={"shards": 2}, serve={"rate": 100})
    assert scenario.serve == ServeConfig(rate=100).to_dict()
    schedule = FaultSchedule(events=[{"kind": "crash", "shard": 0, "at": 3}])
    assert schedule.events == (FaultEvent("crash", 0, 3),)
    assert schedule.to_dict()["events"] == [
        {"kind": "crash", "shard": 0, "at": 3}
    ]


def test_describe_names_every_field_and_choice():
    for cls in SPEC_CLASSES:
        text = cls.describe()
        for field in dataclasses.fields(cls):
            assert field.name in text
            for choice in choices_of(cls, field.name):
                assert choice in text
    assert "serve {rate, duration_s, arrivals (poisson|fixed)}" in (
        Scenario.describe()
    )
    assert "events [{kind (crash|restart), shard, at}, ...]" in (
        FaultSchedule.describe()
    )


# ---------------------------------------------------------------------------
# Non-finite numbers: JSON's Infinity / NaN pass every ``ge`` / ``gt``
# bound, so each float field refuses them by name.
# ---------------------------------------------------------------------------


def float_fields():
    """``(class, field name)`` of every float field of every block."""
    for cls in SPEC_CLASSES:
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            hint = hints[field.name]
            if typing.get_origin(hint) is typing.Union:
                inner = [arg for arg in typing.get_args(hint) if arg is not type(None)]
                hint = inner[0] if len(inner) == 1 else None
            if hint is float:
                yield cls, field.name


#: What a block needs besides the field under test.
REQUIRED = {FaultEvent: {"kind": "crash", "shard": 0, "at": 1}}


def test_every_float_field_is_covered():
    assert sorted(f"{cls.BLOCK}.{name}" for cls, name in float_fields()) == [
        "faults.recovery_epsilon",
        "rebalance.credit_bytes",
        "rebalance.min_shard_fraction",
        "scenario.scale",
        "serve.duration_s",
        "serve.rate",
    ]


@pytest.mark.parametrize(
    "value", [math.inf, -math.inf, math.nan, "inf", "-Infinity", "nan"]
)
@pytest.mark.parametrize(
    "cls, name",
    list(float_fields()),
    ids=lambda item: item if isinstance(item, str) else item.BLOCK,
)
def test_float_fields_refuse_non_finite_values(cls, name, value):
    with pytest.raises(
        ConfigurationError,
        match=f"^bad {re.escape(cls.BLOCK)} block: "
        f"{re.escape(cls.BLOCK)}.{name} must be a finite number",
    ):
        cls.from_dict({**REQUIRED.get(cls, {}), name: value})


def test_non_finite_values_are_refused_inside_nested_blocks():
    with pytest.raises(ConfigurationError, match="serve.rate must be a finite"):
        Scenario(cluster={"shards": 2}, serve={"rate": math.inf})
    with pytest.raises(
        ConfigurationError, match="faults.recovery_epsilon must be a finite"
    ):
        Scenario(cluster={"shards": 2}, faults={"recovery_epsilon": math.nan})
    with pytest.raises(ConfigurationError, match="cluster.shards must be an integer"):
        ClusterConfig(shards=math.inf)
