"""Tests for the workload generators, size models and trace records."""

import itertools
import math
from collections import OrderedDict

import numpy as np
import pytest

from repro.cache.slabs import SlabGeometry
from repro.cache.stats import OP_CODES
from repro.common.errors import ConfigurationError, TraceFormatError
from repro.profiling.hrc import HitRateCurve
from repro.profiling.stack_distance import stack_distances
from repro.sim import load_workload
from repro.sim.defaults import GEOMETRY
from repro.workloads.compiled import (
    COLUMN_DTYPES,
    GLOBAL_TRACE_CACHE,
    Columns,
    CompiledTrace,
)
from repro.workloads.facebook import (
    FACEBOOK_GET_FRACTION,
    FacebookETCStream,
    UniqueKeyStream,
)
from repro.workloads.generators import (
    Component,
    MixtureStream,
    Phase,
    ReuseDistanceStream,
    ZipfStream,
)
from repro.workloads.sizes import FixedSize, GeneralizedParetoSize
from repro.workloads.trace import Request
from repro.workloads.zipf import ZipfSampler
from tests.workloads.reference_streams import iter_requests, merge_by_time


class TestZipfSampler:
    def test_rank_zero_most_popular(self):
        sampler = ZipfSampler(1000, alpha=1.0, seed=1)
        ranks = sampler.sample(20000)
        counts = np.bincount(ranks, minlength=1000)
        assert counts[0] == counts.max()

    def test_alpha_zero_is_uniform(self):
        sampler = ZipfSampler(10, alpha=0.0, seed=1)
        ranks = sampler.sample(50000)
        counts = np.bincount(ranks, minlength=10)
        assert counts.min() > 0.8 * counts.max()

    def test_deterministic_given_seed(self):
        a = ZipfSampler(100, 1.0, seed=7).sample(100)
        b = ZipfSampler(100, 1.0, seed=7).sample(100)
        assert np.array_equal(a, b)

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            ZipfSampler(0, 1.0)
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, -1.0)


class TestSizeModels:
    @pytest.mark.parametrize(
        "model",
        [
            FixedSize(100),
            FixedSize(5000),
            GeneralizedParetoSize(),
            GeneralizedParetoSize(scale=50.0, shape=0.1),
            GeneralizedParetoSize(minimum=64),
        ],
    )
    def test_deterministic_per_key(self, model):
        for key in ("a", "user:17", "x" * 40):
            assert model.size_of(key) == model.size_of(key)
            assert model.size_of(key) >= 1

    def test_pareto_is_heavy_tailed(self):
        model = GeneralizedParetoSize()
        sizes = [model.size_of(f"k{i}") for i in range(20000)]
        mean = sum(sizes) / len(sizes)
        assert np.median(sizes) < mean  # right-skewed

    def test_invalid_models(self):
        with pytest.raises(ConfigurationError):
            FixedSize(0)
        with pytest.raises(ConfigurationError):
            GeneralizedParetoSize(scale=0.0)


class TestStreams:
    def test_zipf_stream_shape(self):
        stream = ZipfStream("app", 100, 1.0, FixedSize(64), seed=1)
        requests = list(stream.generate(500, duration=100.0))
        assert len(requests) == 500
        assert all(r.op == "get" for r in requests)
        times = [r.time for r in requests]
        assert times == sorted(times)
        assert times[-1] < 100.0

    def test_zipf_stream_set_fraction(self):
        stream = ZipfStream(
            "app", 100, 1.0, FixedSize(64), set_fraction=0.5, seed=1
        )
        ops = [r.op for r in stream.generate(2000, 10.0)]
        sets = ops.count("set")
        assert 800 < sets < 1200

    def test_reuse_stream_produces_sigmoid_curve(self):
        stream = ReuseDistanceStream(
            "app", 300, 60, FixedSize(64), refs_per_key=9, seed=2
        )
        keys = [r.key for r in stream.generate(40000, 100.0)]
        curve = HitRateCurve.from_stack_distances(stack_distances(keys))
        # plateau near refs/(refs+1)
        assert curve.hit_rates[-1] == pytest.approx(0.9, abs=0.05)
        # flat well below the mean, steep at it
        assert curve.hit_rate(100) < 0.05
        assert curve.cliffs(tolerance=0.02), "no cliff detected"

    def test_mixture_respects_phases(self):
        always = Component(
            ZipfStream("a", 10, 1.0, FixedSize(64), namespace="x", seed=1),
            weight=1.0,
        )
        burst = Component(
            ZipfStream("a", 10, 1.0, FixedSize(64), namespace="y", seed=2),
            weight=0.02,
            phases=(Phase(0.5, 1.0, 100.0),),
        )
        stream = MixtureStream("a", [always, burst], seed=3)
        requests = list(stream.generate(2000, 100.0))
        first_half = [r for r in requests[:1000] if ":y:" in r.key]
        second_half = [r for r in requests[1000:] if ":y:" in r.key]
        assert len(second_half) > 5 * max(1, len(first_half))

    def test_phase_validation(self):
        with pytest.raises(ConfigurationError):
            Phase(0.8, 0.2, 1.0)


class TestFacebookStreams:
    def test_etc_mix(self):
        stream = FacebookETCStream(num_keys=1000, seed=1)
        ops = [r.op for r in stream.generate(5000, 10.0)]
        get_fraction = ops.count("get") / len(ops)
        assert get_fraction == pytest.approx(FACEBOOK_GET_FRACTION, abs=0.02)

    def test_unique_keys_always_miss(self):
        stream = UniqueKeyStream(seed=1)
        keys = [r.key for r in stream.generate(1000, 10.0)]
        assert len(set(keys)) == 1000

    def test_etc_key_sizes_in_range(self):
        stream = FacebookETCStream(num_keys=100, seed=1)
        for r in itertools.islice(stream.generate(200, 10.0), 200):
            assert 16 <= r.key_size <= 45


class TestTraceIO:
    def test_invalid_op_rejected(self):
        with pytest.raises(TraceFormatError):
            Request(0.0, "a", "k", "frobnicate", 10)

    def test_merge_by_time(self):
        """Rows order by ``(time, app)``, ties in stream order: the
        heapq merge of the same requests."""

        def stream(app, times):
            return [Request(t, app, f"{app}{t}", "get", 1) for t in times]

        def columns(requests):
            return Columns(
                requests[0].app,
                np.array([r.time for r in requests]),
                [r.key for r in requests],
                np.arange(len(requests)),
                np.array([OP_CODES[r.op] for r in requests], dtype=np.int8),
                np.array([r.value_size for r in requests]),
                np.array([r.key_size for r in requests]),
            )

        streams = [
            stream("b", (0.0, 1.0, 2.0, 3.0)),
            stream("a", (0.0, 2.0, 4.0)),
            stream("a", (2.0,)),
        ]
        geometry = SlabGeometry.default()
        merged = CompiledTrace.compile([columns(s) for s in streams], geometry)
        expected = CompiledTrace.compile(merge_by_time(streams), geometry)
        assert list(iter_requests(merged)) == list(iter_requests(expected))
        assert merged.key_table == expected.key_table
        assert [(r.time, r.app) for r in iter_requests(merged)] == [
            (0.0, "a"), (0.0, "b"), (1.0, "b"), (2.0, "a"), (2.0, "a"),
            (2.0, "b"), (3.0, "b"), (4.0, "a"),
        ]

    def test_a_workload_without_apps_is_an_empty_trace(self):
        """No streams merge into an empty trace, as the heapq merge of
        none did."""
        trace = load_workload("zipf", scale=0.05, seed=0, apps=[])
        assert len(trace.compiled) == 0
        assert trace.compiled.app_table == trace.compiled.key_table == []


#: One small case of each kind of loader: the paper's mix, a stationary
#: tenant workload and a time-dynamic one.
LAZY_CASES = {
    "memcachier": {"scale": 0.012, "apps": [1, 20]},
    "zipf": {"scale": 0.02},
    "flash-crowd": {"scale": 0.02},
}


class TestLazyLoad:
    """``load_workload`` costs the analytic per-app build only: its
    requests are generated and compiled on the first read of
    ``compiled``, through the trace cache under the same key as ever."""

    @pytest.fixture
    def fresh_cache(self, tmp_path, monkeypatch):
        """An empty on-disk and in-process trace cache."""
        directory = tmp_path / "traces"
        directory.mkdir()
        monkeypatch.setattr(GLOBAL_TRACE_CACHE, "directory", directory)
        monkeypatch.setattr(GLOBAL_TRACE_CACHE, "_memory", OrderedDict())
        return directory

    @pytest.fixture
    def compiles(self, monkeypatch):
        """Every ``CompiledTrace.compile`` call, by its geometry."""
        calls = []
        compile_ = CompiledTrace.compile

        def spy(source, geometry=None):
            calls.append(geometry)
            return compile_(source, geometry)

        monkeypatch.setattr(CompiledTrace, "compile", staticmethod(spy))
        return calls

    @pytest.mark.parametrize("workload", sorted(LAZY_CASES))
    def test_requests_are_built_on_first_read_only(
        self, workload, fresh_cache, compiles, monkeypatch
    ):
        keys = []
        get_or_compile = GLOBAL_TRACE_CACHE.get_or_compile

        def recording(key, *args, **kwargs):
            keys.append(key)
            return get_or_compile(key, *args, **kwargs)

        monkeypatch.setattr(GLOBAL_TRACE_CACHE, "get_or_compile", recording)
        trace = load_workload(workload, seed=0, **LAZY_CASES[workload])
        assert trace.reservations and all(trace.requests_per_app.values())
        assert (compiles, keys) == ([], [])
        assert list(fresh_cache.iterdir()) == []

        compiled = trace.compiled
        assert (compiles, keys) == ([GEOMETRY], [trace.cache_key])
        assert len(compiled) == sum(trace.requests_per_app.values())
        assert compiled.app_table == trace.app_names
        assert trace.compiled is compiled
        assert len(compiles) == len(keys) == 1

        # The same key compiled eagerly, from a cache that has neither.
        monkeypatch.setattr(
            GLOBAL_TRACE_CACHE, "directory", fresh_cache.parent / "eager"
        )
        monkeypatch.setattr(GLOBAL_TRACE_CACHE, "_memory", OrderedDict())
        again = load_workload(workload, seed=0, **LAZY_CASES[workload])
        eager = get_or_compile(trace.cache_key, again.columns, GEOMETRY)
        assert len(compiles) == 2
        assert eager.app_table == compiled.app_table
        assert eager.key_table == compiled.key_table
        for name in COLUMN_DTYPES:
            assert np.array_equal(getattr(eager, name), getattr(compiled, name))

    @pytest.mark.parametrize(
        "workload, params, match",
        [
            ("zipf", {"zipf_alpha": 1.0}, "unknown zipf workload params"),
            ("flash-crowd", {"crowd": 1}, "unknown flash-crowd"),
            ("zipf", {"alpha": -1.0}, "alpha must be >= 0"),
            ("flash-crowd", {"crowd_alpha": -1.0}, "crowd_alpha must be"),
            ("facebook", {"alpha": -1.0}, "alpha must be >= 0"),
            ("zipf", {"scale": 0.0}, "scale must be positive"),
            ("memcachier", {"scale": -1.0}, "scale must be positive"),
            ("memcachier", {"scale": math.nan}, "scale must be positive"),
            ("zipf", {"scale": math.inf}, "scale must be positive"),
            ("memcachier", {"apps": []}, "no applications selected"),
        ],
    )
    def test_a_bad_parameter_raises_from_load_workload(
        self, workload, params, match, fresh_cache, compiles
    ):
        params = {"scale": 0.02, **params}
        with pytest.raises(ConfigurationError, match=match):
            load_workload(workload, seed=0, **params)
        assert compiles == []
        assert list(fresh_cache.iterdir()) == []
