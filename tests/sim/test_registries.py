"""Scheme/workload registry behaviour and error paths."""

from __future__ import annotations

import pytest

from repro.cache.engines import FirstComeFirstServeEngine
from repro.common.errors import ConfigurationError
from repro.sim import (
    Registry,
    SCHEMES,
    WORKLOADS,
    Scenario,
    make_engine,
    run_scenario,
)


BUILTIN_SCHEMES = (
    "default",
    "planned",
    "lsm",
    "hill",
    "cliff-only",
    "hill-only",
    "cliffhanger",
)


def test_builtin_schemes_registered():
    # Subset, not equality: other tests may register extra schemes and
    # the global registry forbids re-registration, so leaks are sticky.
    assert set(BUILTIN_SCHEMES) <= set(SCHEMES.names())


def shrink_evictions(scheme):
    """Fill a 2 MB engine with 600 B items and take 1.5 MB away:
    ``(evictions shrink_budget reported, items that actually went)``."""
    from repro.cache.stats import OP_CODES
    from repro.sim.defaults import GEOMETRY

    slab_class = GEOMETRY.class_for_size(600)
    chunk = GEOMETRY.chunk_size(slab_class)
    engine = make_engine(scheme, "a", 2e6, plan={slab_class: 2e6})
    for i in range(6000):
        engine.process_fast(f"k{i}", OP_CODES["set"], slab_class, chunk, 600)
    item_bytes = 600 if scheme == "lsm" else chunk  # the log packs items
    held = engine.used_bytes() / item_bytes
    evicted = engine.shrink_budget(1.5e6)
    assert engine.used_bytes() <= engine.budget_bytes
    return evicted, held - engine.used_bytes() / item_bytes


@pytest.mark.parametrize("scheme", BUILTIN_SCHEMES)
def test_shrink_budget_reports_what_it_evicted(scheme):
    # The rebalancer's rebalance_evictions and the injector's
    # fault_evictions are sums of this return value.
    evicted, dropped = shrink_evictions(scheme)
    assert evicted > 0
    assert evicted == dropped


def test_shrink_budget_counts_agree_across_shadow_schemes():
    assert shrink_evictions("cliffhanger") == shrink_evictions("hill")


def test_builtin_workloads_registered():
    assert {"memcachier", "zipf", "facebook"} <= set(WORKLOADS.names())


def test_unknown_scheme_rejected():
    with pytest.raises(ConfigurationError, match="unknown scheme 'nope'"):
        SCHEMES.get("nope")
    with pytest.raises(ConfigurationError, match="unknown scheme"):
        make_engine("nope", "app", 1 << 20)


def test_unknown_workload_rejected():
    with pytest.raises(ConfigurationError, match="unknown workload"):
        WORKLOADS.get("nope")


def test_run_scenario_surfaces_unknown_names():
    with pytest.raises(ConfigurationError, match="unknown workload"):
        run_scenario(Scenario(workload="nope", scale=0.01))
    with pytest.raises(ConfigurationError, match="unknown scheme"):
        run_scenario(
            Scenario(
                scheme="nope",
                workload="zipf",
                scale=0.01,
                workload_params={"num_keys": 100, "requests_per_app": 600},
            )
        )


def test_duplicate_registration_rejected():
    registry = Registry("thing")

    @registry.register("x", "the first x")
    def build_x():
        return 1

    with pytest.raises(ConfigurationError, match="already registered"):

        @registry.register("x", "another x")
        def build_x_again():
            return 2

    assert registry.get("x") is build_x


def test_bad_registration_name_rejected():
    registry = Registry("thing")
    with pytest.raises(ConfigurationError):
        registry.register("", "a note")
    with pytest.raises(ConfigurationError):
        registry.register(None, "a note")


@pytest.mark.parametrize("registry", [SCHEMES, WORKLOADS, Registry("thing")])
def test_registration_without_a_note_rejected(registry):
    """The note is what ``--list`` prints; an entry cannot ship without
    one (this replaces the retired ``registry-doc-sync`` lint rule)."""
    with pytest.raises(TypeError):
        registry.register("noteless")
    for note in ("", None):
        with pytest.raises(ConfigurationError, match="note"):
            registry.register("noteless", note)
    assert "noteless" not in registry


def test_every_builtin_entry_has_a_note():
    for registry in (SCHEMES, WORKLOADS):
        for name in registry.names():
            assert registry.note(name).strip()
    with pytest.raises(ConfigurationError, match="unknown scheme"):
        SCHEMES.note("nope")


def test_registered_scheme_usable_from_scenario():
    """A decorator-registered scheme plugs straight into run_scenario."""
    name = "test-only-half-budget"
    if name not in SCHEMES:

        @SCHEMES.register(name, "FCFS on half the budget (test only)")
        def _build(app, budget_bytes, *, geometry, policy="lru", **_context):
            return FirstComeFirstServeEngine(
                app, budget_bytes / 2, geometry, policy=policy
            )

    scenario = Scenario(
        scheme=name,
        workload="zipf",
        scale=0.05,
        workload_params={
            "apps": 1,
            "num_keys": 2_000,
            "requests_per_app": 20_000,
        },
    )
    result = run_scenario(scenario, keep_server=True)
    engine = result.server.engines["zipf01"]
    assert engine.budget_bytes == pytest.approx(
        result.budgets["zipf01"] / 2
    )
    assert 0.0 < result.overall_hit_rate < 1.0


def test_workload_bad_params_rejected():
    with pytest.raises(ConfigurationError, match="unknown zipf"):
        run_scenario(
            Scenario(
                workload="zipf",
                scale=0.01,
                workload_params={"num_kyes": 100},
            )
        )
    with pytest.raises(ConfigurationError, match="unknown facebook"):
        run_scenario(
            Scenario(
                workload="facebook",
                scale=0.01,
                workload_params={"zipf_alpha": 1.0},
            )
        )
