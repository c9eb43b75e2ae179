"""Serve harness + scenario wiring: config, report shape, dispatch.

These are the integration seams: the ``serve`` block round-trips
through :class:`ServeConfig`, ``run_serve`` drives a real cluster
end-to-end over the in-memory transport, and ``run_scenario`` swaps the
offline replay for live serving when the block is present. All asserts are shape/accounting only -- no latency
thresholds, so tier-1 stays immune to scheduler jitter.
"""

from __future__ import annotations

import pytest

import dataclasses

from repro.common.errors import ConfigurationError
from repro.serve.harness import ServeConfig, ServeReport, run_serve
from repro.sim.runner import run_scenario
from repro.sim.scenario import Scenario

ZIPF_PARAMS = {"apps": 1, "num_keys": 500, "requests_per_app": 2000}

SERVE_BLOCK = {
    "rate": 4000.0,
    "duration_s": 0.05,
    "arrivals": "fixed",
}


def make_scenario(**overrides):
    fields = dict(
        workload="zipf",
        workload_params=dict(ZIPF_PARAMS),
        scale=1.0,
        seed=0,
        cluster={"shards": 2},
        serve=dict(SERVE_BLOCK),
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestServeConfig:
    def test_defaults_valid_and_round_trip(self):
        config = ServeConfig()
        assert ServeConfig.from_dict(config.to_dict()) == config
        assert ServeConfig.from_dict(None) == config

    def test_exact_field_sets(self):
        """The block holds what scenarios drive; server overload knobs
        belong to the ``repro-serve`` listener."""

        def names(cls):
            return tuple(field.name for field in dataclasses.fields(cls))

        assert names(ServeConfig) == ("rate", "duration_s", "arrivals")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown serve"):
            ServeConfig.from_dict({"rate": 100.0, "ratee": 1})
        # The retired per-request knob is just another unknown field.
        with pytest.raises(
            ConfigurationError, match="^unknown serve fields: per_request$"
        ):
            ServeConfig.from_dict({"per_request": False})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            ServeConfig.from_dict([("rate", 100.0)])

    @pytest.mark.parametrize(
        ("fields", "match"),
        [
            ({"rate": 0}, "rate"),
            ({"duration_s": -1.0}, "duration_s"),
            ({"arrivals": "uniform"}, "arrivals"),
            # Retired fields are refused by name, whatever the value.
            ({"backpressure": "queue"}, "backpressure"),
            ({"connections": 4}, "connections"),
            ({"queue_depth": 1024}, "queue_depth"),
            ({"max_batch": 256}, "max_batch"),
            ({"transport": "memory"}, "transport"),
        ],
    )
    def test_each_field_validated(self, fields, match):
        with pytest.raises(ConfigurationError, match=match):
            ServeConfig.from_dict(fields)


class TestRunServe:
    def make_cluster_and_trace(self):
        from repro.cache.slabs import SlabGeometry
        from repro.cluster import Cluster, ClusterConfig
        from repro.sim.workloads import load_workload

        trace = load_workload("zipf", scale=1.0, seed=0, **ZIPF_PARAMS)
        cluster = Cluster(ClusterConfig(shards=2), SlabGeometry.default())
        return cluster, trace.compiled

    def test_memory_transport_end_to_end(self):
        cluster, compiled = self.make_cluster_and_trace()
        config = ServeConfig(rate=4000.0, duration_s=0.05, arrivals="fixed")
        report = run_serve(cluster, compiled, config, seed=0)
        assert isinstance(report, ServeReport)
        result = report.result
        assert result.issued == 200
        assert result.completed + result.errors == 200
        assert result.errors == 0
        assert result.completed > 0
        assert result.histogram.count == result.completed
        # The served requests landed in the cluster's counters, so the
        # usual cluster reporting works on the same object afterwards.
        stats = cluster.aggregate_stats()
        assert stats.total.gets + stats.total.sets > 0

    def test_overdriven_in_queue_mode_loses_nothing(self):
        """Offered far above capacity: the server's default queue
        backpressure holds the excess instead of failing or dropping
        requests."""
        cluster, compiled = self.make_cluster_and_trace()
        config = ServeConfig(rate=60_000.0, duration_s=0.02, arrivals="fixed")
        result = run_serve(cluster, compiled, config, seed=0).result
        assert result.issued == 1200
        assert result.errors == 0
        assert result.completed == result.issued
        assert result.histogram.count == result.completed

    def test_report_payload_shape(self):
        cluster, compiled = self.make_cluster_and_trace()
        config = ServeConfig(rate=2000.0, duration_s=0.05, arrivals="fixed")
        payload = run_serve(cluster, compiled, config, seed=0).to_dict()
        assert set(payload) == {
            "arrivals", "offered_rate", "achieved_rate", "duration_s",
            "elapsed_s", "requests", "completed", "errors",
            "latency_ms", "queue_depth", "faults",
        }
        assert payload["requests"] == 100
        assert payload["arrivals"] == "fixed"
        assert payload["offered_rate"] == 2000.0
        assert payload["achieved_rate"] > 0
        assert set(payload["latency_ms"]) == {
            "p50", "p95", "p99", "p999", "mean", "max"
        }
        depths = payload["queue_depth"]
        assert depths["batches"] >= 1
        assert len(depths["depths"]) == depths["batches"]


class TestScenarioValidation:
    def test_serve_requires_cluster(self):
        with pytest.raises(ConfigurationError, match="cluster"):
            make_scenario(cluster=None)

    def test_serve_accepts_fault_events(self):
        scenario = make_scenario(
            faults={"events": [{"kind": "crash", "shard": 0, "at": 10}]}
        )
        assert scenario.serve is not None
        assert scenario.faults["events"]
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone.faults == scenario.faults
        assert clone.serve == scenario.serve

    def test_serve_allows_empty_fault_block(self):
        scenario = make_scenario(faults={"events": []})
        assert scenario.serve is not None

    def test_serve_block_normalized_with_defaults(self):
        scenario = make_scenario(serve={"rate": 123.0})
        assert scenario.serve == {
            "rate": 123.0, "duration_s": 1.0, "arrivals": "poisson",
        }

    def test_bad_serve_field_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="arrivals"):
            make_scenario(serve={"arrivals": "bursty"})
        with pytest.raises(ConfigurationError, match="unknown serve"):
            make_scenario(serve={"ratee": 5})

    def test_label_includes_serve_rate(self):
        assert "/serve-4000" in make_scenario().label()

    def test_dict_round_trip_preserves_serve(self):
        scenario = make_scenario()
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone.serve == scenario.serve
        assert clone.to_dict() == scenario.to_dict()


class TestRunScenarioDispatch:
    def test_serve_block_produces_serve_section(self):
        result = run_scenario(make_scenario())
        report = result.cluster_report
        assert report is not None
        serve = report["serve"]
        assert serve["requests"] == 200
        assert serve["completed"] > 0
        assert serve["errors"] == 0
        # The replay-side numbers come from the same live run.
        assert 0.0 <= result.overall_hit_rate <= 1.0
        assert report["shards"]

    def test_without_serve_block_no_serve_section(self):
        result = run_scenario(make_scenario(serve=None))
        assert result.cluster_report.get("serve") is None

    def test_serve_with_rebalance_advances_epochs(self):
        scenario = make_scenario(
            serve=dict(SERVE_BLOCK, rate=8000.0),
            rebalance={"epoch_requests": 50, "policy": "load"},
        )
        result = run_scenario(scenario)
        assert result.cluster_report["rebalance"]["epochs"] >= 1

    def test_rendered_report_mentions_serving(self):
        from repro.cluster.cluster import render_cluster_report

        result = run_scenario(make_scenario())
        text = "\n".join(render_cluster_report(result.cluster_report))
        assert "serve (" in text
        assert "p99" in text
        assert "queue depth" in text
