"""Dynamic workloads: phase shifts, flash crowds, registry plumbing."""

import pytest

from repro.common.errors import ConfigurationError
from repro.sim import WORKLOADS, load_workload
from repro.workloads.generators import (
    FlashCrowdStream,
    PhasedZipfStream,
    ZipfPhase,
    ZipfStream,
)
from repro.workloads.sizes import FixedSize

SIZE = FixedSize(256)


def key_index(key: str) -> int:
    return int(key.rsplit(":", 1)[1])


class TestPhasedZipfStream:
    def two_phase(self, seed=0):
        return PhasedZipfStream(
            app="a",
            phases=(
                ZipfPhase(0.0, alpha=1.0, num_keys=500),
                ZipfPhase(0.5, alpha=0.6, num_keys=500, key_offset=500),
            ),
            size_model=SIZE,
            seed=seed,
        )

    def test_working_set_shifts_at_the_offset(self):
        requests = list(self.two_phase().generate(2000, 3600.0))
        first = {key_index(r.key) for r in requests[:1000]}
        second = {key_index(r.key) for r in requests[1000:]}
        assert max(first) < 500
        assert min(second) >= 500

    def test_deterministic_given_seed(self):
        a = [r.key for r in self.two_phase().generate(1000, 3600.0)]
        b = [r.key for r in self.two_phase().generate(1000, 3600.0)]
        c = [r.key for r in self.two_phase(seed=1).generate(1000, 3600.0)]
        assert a == b
        assert a != c

    def test_single_phase_degenerates_to_zipf_universe(self):
        stream = PhasedZipfStream(
            app="a",
            phases=(ZipfPhase(0.0, alpha=1.0, num_keys=100),),
            size_model=SIZE,
        )
        indices = {key_index(r.key) for r in stream.generate(2000, 3600.0)}
        assert indices <= set(range(100))

    def test_bad_phase_lists_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one phase"):
            PhasedZipfStream(app="a", phases=(), size_model=SIZE)
        with pytest.raises(ConfigurationError, match="increasing"):
            PhasedZipfStream(
                app="a",
                phases=(
                    ZipfPhase(0.5, 1.0, 100),
                    ZipfPhase(0.5, 0.8, 100),
                ),
                size_model=SIZE,
            )
        with pytest.raises(ConfigurationError, match="start at 0.0"):
            PhasedZipfStream(
                app="a",
                phases=(ZipfPhase(0.2, 1.0, 100),),
                size_model=SIZE,
            )
        with pytest.raises(ConfigurationError):
            ZipfPhase(1.5, 1.0, 100)


class TestFlashCrowdStream:
    def crowd(self, **kwargs):
        base = ZipfStream(
            app="a", num_keys=1000, alpha=1.0, size_model=SIZE, seed=0
        )
        defaults = dict(
            app="a",
            base=base,
            size_model=SIZE,
            crowd_keys=4,
            crowd_fraction=1.0,
            crowd_start=0.4,
            crowd_duration=0.2,
            seed=0,
        )
        defaults.update(kwargs)
        return FlashCrowdStream(**defaults)

    def test_crowd_confined_to_its_window(self):
        requests = list(self.crowd().generate(1000, 3600.0))
        flash = [
            i for i, r in enumerate(requests) if ":flash:" in r.key
        ]
        assert flash, "crowd never fired"
        assert min(flash) >= 390  # window starts at fraction 0.4
        assert max(flash) <= 610  # and ends at 0.6
        # With fraction 1.0 the window is all crowd.
        assert len(flash) >= 0.19 * 1000

    def test_crowd_uses_a_tiny_key_set(self):
        requests = list(self.crowd().generate(1000, 3600.0))
        crowd_keys = {r.key for r in requests if ":flash:" in r.key}
        assert len(crowd_keys) <= 4

    def test_zero_fraction_passes_base_through(self):
        requests = list(self.crowd(crowd_fraction=0.0).generate(500, 3600.0))
        assert all(":flash:" not in r.key for r in requests)

    def test_bad_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            self.crowd(crowd_start=0.9, crowd_duration=0.2)
        with pytest.raises(ConfigurationError):
            self.crowd(crowd_fraction=1.5)
        with pytest.raises(ConfigurationError):
            self.crowd(crowd_keys=0)


class TestRegisteredWorkloads:
    def test_both_workloads_registered(self):
        names = WORKLOADS.names()
        assert "zipf-phases" in names
        assert "flash-crowd" in names

    def test_zipf_phases_loads_and_compiles(self):
        trace = load_workload(
            "zipf-phases",
            scale=0.1,
            seed=0,
            apps=1,
            num_keys=2000,
            requests_per_app=5000,
        )
        assert trace.app_names == ["phased01"]
        assert len(trace.compiled) == 500
        # Default phases shift to a disjoint universe halfway: the two
        # halves of the stream share (almost) no keys.
        keys = trace.compiled.keys
        first, second = set(keys[:250]), set(keys[250:])
        assert not first & second

    def test_disjoint_phases_stay_disjoint_at_tiny_scales(self):
        """Regression: the per-phase >=50-key floor used to apply to
        num_keys but not key_offset, so disjoint phase lists silently
        overlapped once scale pushed a universe below 50 keys."""
        trace = load_workload(
            "zipf-phases",
            scale=0.001,
            seed=0,
            apps=1,
            num_keys=40_000,
            requests_per_app=500_000,
        )
        keys = trace.compiled.keys
        half = len(keys) // 2
        assert not set(keys[:half]) & set(keys[half:])

    def test_phase_offsets_scale_with_the_trace(self):
        full = load_workload(
            "zipf-phases", scale=1.0, seed=0, apps=1,
            num_keys=1000, requests_per_app=5000,
        )
        small = load_workload(
            "zipf-phases", scale=0.5, seed=0, apps=1,
            num_keys=1000, requests_per_app=5000,
        )
        # Disjointness survives scaling (offset scales with num_keys).
        for trace in (full, small):
            keys = trace.compiled.keys
            half = len(keys) // 2
            assert not set(keys[:half]) & set(keys[half:])

    def test_flash_crowd_loads_and_compiles(self):
        trace = load_workload(
            "flash-crowd",
            scale=0.1,
            seed=0,
            apps=2,
            num_keys=2000,
            requests_per_app=5000,
            crowd_fraction=0.9,
        )
        assert trace.app_names == ["flash01", "flash02"]
        assert len(trace.compiled) == 1000
        assert any(":flash:" in key for key in trace.compiled.keys)

    def test_unknown_params_rejected(self):
        with pytest.raises(ConfigurationError, match="zipf-phases"):
            load_workload("zipf-phases", scale=0.1, seed=0, zipf_alpha=2.0)
        with pytest.raises(ConfigurationError, match="flash-crowd"):
            load_workload("flash-crowd", scale=0.1, seed=0, crowd=1)

    def test_bad_phase_specs_rejected(self):
        with pytest.raises(ConfigurationError, match="missing 'at'"):
            load_workload(
                "zipf-phases", scale=0.1, seed=0, apps=1,
                phases=[{"alpha": 1.0}],
            )
        with pytest.raises(ConfigurationError, match="unknown phase"):
            load_workload(
                "zipf-phases", scale=0.1, seed=0, apps=1,
                phases=[{"at": 0.0, "exponent": 1.0}],
            )
        with pytest.raises(ConfigurationError, match="non-empty list"):
            load_workload(
                "zipf-phases", scale=0.1, seed=0, apps=1, phases=[],
            )
