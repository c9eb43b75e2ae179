"""Tests for the synthetic Memcachier trace."""

import pytest

from repro.cache.slabs import SlabGeometry
from repro.common.errors import ConfigurationError
from repro.workloads.compiled import CompiledTrace
from repro.workloads.memcachier import (
    APP_SPECS,
    build_memcachier_trace,
    value_size_for_class,
    zipf_cache_for_hit_rate,
)
from tests.workloads.reference_streams import iter_requests


class TestHelpers:
    def test_value_size_lands_in_class(self):
        geometry = SlabGeometry.default()
        for class_index in range(1, 12):
            value = value_size_for_class(class_index)
            assert geometry.row(len("app00:z:12345"), value)[0] == class_index

    def test_zipf_cache_monotone_in_target(self):
        small = zipf_cache_for_hit_rate(10000, 1.0, 0.5)
        large = zipf_cache_for_hit_rate(10000, 1.0, 0.9)
        assert small < large <= 10000

    def test_zipf_cache_invalid_target(self):
        with pytest.raises(ConfigurationError):
            zipf_cache_for_hit_rate(100, 1.0, 0.0)


class TestSpecs:
    def test_twenty_apps(self):
        assert len(APP_SPECS) == 20
        assert [spec.index for spec in APP_SPECS] == list(range(1, 21))

    def test_cliff_apps_match_paper_annotation(self):
        starred = {spec.index for spec in APP_SPECS if spec.has_cliff}
        assert starred == {1, 7, 10, 11, 18, 19}


class TestBuild:
    def test_subset_selection(self):
        trace = build_memcachier_trace(scale=0.01, apps=[3, 5])
        assert list(trace.specs) == ["app03", "app05"]

    def test_unknown_subset_rejected(self):
        with pytest.raises(ConfigurationError):
            build_memcachier_trace(scale=0.01, apps=[99])

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            build_memcachier_trace(scale=0)

    def test_requests_are_time_ordered_and_complete(self):
        trace = build_memcachier_trace(scale=0.01, apps=[3, 4, 5])
        requests = list(iter_requests(CompiledTrace.compile(trace.columns())))
        assert len(requests) == trace.total_requests
        times = [r.time for r in requests]
        assert times == sorted(times)

    def test_regenerable(self):
        trace = build_memcachier_trace(scale=0.01, apps=[3])
        first = CompiledTrace.compile(trace.columns()).keys[:200].tolist()
        second = CompiledTrace.compile(trace.columns()).keys[:200].tolist()
        assert first == second

    def test_deterministic_across_builds(self):
        a = build_memcachier_trace(scale=0.01, apps=[4], seed=5)
        b = build_memcachier_trace(scale=0.01, apps=[4], seed=5)
        keys_a = CompiledTrace.compile(a.columns()).keys[:300].tolist()
        keys_b = CompiledTrace.compile(b.columns()).keys[:300].tolist()
        assert keys_a == keys_b

    def test_app_structure_matches_design(self):
        """Apps with documented multi-class structure really produce
        requests in several slab classes."""
        trace = build_memcachier_trace(scale=0.02, apps=[6])
        compiled = CompiledTrace.compile(trace.columns(), SlabGeometry.default())
        classes = set(compiled.slab_classes[:4000].tolist())
        assert len(classes) >= 3

    def test_reservations_positive(self):
        trace = build_memcachier_trace(scale=0.01)
        assert all(v > 0 for v in trace.reservations.values())

    def test_min_requests_floor(self):
        trace = build_memcachier_trace(scale=0.001)
        for spec in APP_SPECS:
            assert (
                trace.requests_per_app[spec.name] >= spec.min_requests
            )


class TestLoaded:
    def test_load_workload_returns_the_one_loaded_trace_type(self):
        """``load_workload("memcachier", ...)`` hands back the
        ``SyntheticTrace`` every workload returns, carrying what the
        retired ``CachedTrace`` facade exposed (values recorded from it
        at scale 0.012, seed 0)."""
        import hashlib

        import numpy as np

        from repro.sim import SyntheticTrace, load_workload
        from tests.sim.test_workload_pins import column_hash

        trace = load_workload("memcachier", scale=0.012, apps=[3, 19])
        assert type(trace) is SyntheticTrace
        assert (trace.scale, trace.seed) == (0.012, 0)
        assert trace.app_names == ["app03", "app19"]
        assert trace.reservations == {
            "app03": 3532799.9999999995,
            "app19": 660864.0,
        }
        assert trace.requests_per_app == {"app03": 17142, "app19": 20000}
        assert sum(trace.requests_per_app.values()) == 37142
        assert {
            app: (spec.index, spec.has_cliff)
            for app, spec in trace.specs.items()
        } == {"app03": (3, False), "app19": (19, True)}
        compiled = trace.compiled
        assert len(compiled) == 37142
        assert compiled.routing_digest() == "1f11b5e6ba8976e540f2fd2e7843161d"
        assert column_hash(compiled) == "c3bb6b3e4fc8614350d6bbdc29898ec6"
        derived = hashlib.sha256()
        for column in (compiled.chunk_bytes, compiled.item_bytes):
            derived.update(np.asarray(column, dtype=np.int64).tobytes())
        assert derived.hexdigest()[:32] == "ba66f15a3e4b49bdd544a36cbe319a24"
        assert len(trace.compiled_for("app19")) == 20000
