"""Chaos serving: fault injection through the live data plane.

The contract under test: fault events land at exact request-count
offsets on the virtual-time axis no matter how the event loop
interleaves batches, so a fixed seed reproduces the identical fault
timeline; dead shards answer per the schedule's policy (failover
re-routes, miss-through tags misses); and the serve report grows a
``faults`` section with recovery metrics plus the scheduled-index
latency timeline. Latency *values* are wall-clock and never asserted --
only counts, offsets and shapes.
"""

from __future__ import annotations

import json

from repro.cache.slabs import SlabGeometry
from repro.cluster import Cluster, ClusterConfig, FaultInjector, FaultSchedule
from repro.serve.harness import ServeConfig, run_serve
from repro.sim.runner import run_scenario
from repro.sim.scenario import Scenario
from repro.sim.workloads import load_workload

ZIPF_PARAMS = {"apps": 1, "num_keys": 500, "requests_per_app": 4000}

FAULT_EVENTS = [
    {"kind": "crash", "shard": 1, "at": 100},
    {"kind": "restart", "shard": 1, "at": 200},
]


def make_cluster_and_trace(shards=4):
    trace = load_workload("zipf", scale=1.0, seed=0, **ZIPF_PARAMS)
    cluster = Cluster(ClusterConfig(shards=shards), SlabGeometry.default())
    return cluster, trace.compiled


def attach(cluster, events=FAULT_EVENTS, policy="failover"):
    schedule = FaultSchedule.from_dict(
        {"events": [dict(e) for e in events], "policy": policy}
    )
    cluster.attach_faults(FaultInjector(cluster, schedule))
    return cluster.fault_injector


def serve_config(**overrides):
    fields = dict(rate=8000.0, duration_s=0.05, arrivals="fixed")
    fields.update(overrides)
    return ServeConfig(**fields)


class TestFaultsThroughServing:
    def test_events_fire_at_exact_offsets(self):
        cluster, compiled = make_cluster_and_trace()
        attach(cluster)
        report = run_serve(cluster, compiled, serve_config(), seed=0)
        faults = report.faults
        assert faults is not None
        crash = faults["crashes"][0]
        assert crash["shard"] == 1
        assert crash["crash_at"] == 100
        assert crash["restart_at"] == 200
        assert crash["downtime_requests"] == 100
        assert report.result.completed == report.result.issued == 400

    def test_fault_section_rides_report_payload(self):
        cluster, compiled = make_cluster_and_trace()
        attach(cluster)
        payload = run_serve(
            cluster, compiled, serve_config(), seed=0
        ).to_dict()
        faults = payload["faults"]
        assert faults["policy"] == "failover"
        timeline = faults["latency_timeline"]
        assert timeline, "serve+faults must produce latency windows"
        for window in timeline:
            assert set(window) == {
                "start", "stop", "completed", "errors",
                "p50_ms", "p99_ms",
            }
        # Windows tile the scheduled index space exactly.
        assert timeline[0]["start"] == 0
        assert timeline[-1]["stop"] == payload["requests"]
        for left, right in zip(timeline, timeline[1:]):
            assert left["stop"] == right["start"]

    def test_same_seed_reproduces_fault_timeline(self):
        sections = []
        occupancies = []
        for _ in range(2):
            cluster, compiled = make_cluster_and_trace()
            attach(cluster)
            report = run_serve(
                cluster,
                compiled,
                serve_config(arrivals="poisson"),
                seed=3,
            )
            section = dict(report.faults)
            timeline = section.pop("latency_timeline")
            sections.append(json.dumps(section, sort_keys=True))
            occupancies.append(
                [
                    (w["start"], w["stop"], w["completed"], w["errors"])
                    for w in timeline
                ]
            )
        assert sections[0] == sections[1]
        assert occupancies[0] == occupancies[1]

    def test_miss_through_tags_dead_requests(self):
        cluster, compiled = make_cluster_and_trace()
        attach(
            cluster,
            events=[{"kind": "crash", "shard": 1, "at": 100}],
            policy="miss-through",
        )
        report = run_serve(cluster, compiled, serve_config(), seed=0)
        assert report.faults["dead_requests"] > 0
        # Dead-shard requests are still answered (as misses), never
        # errored or hung.
        assert report.result.errors == 0
        assert report.result.completed == report.result.issued

    def test_failover_reroutes_instead_of_missing(self):
        cluster, compiled = make_cluster_and_trace()
        attach(cluster, events=[{"kind": "crash", "shard": 1, "at": 100}])
        report = run_serve(cluster, compiled, serve_config(), seed=0)
        assert report.faults["dead_requests"] == 0
        assert report.result.errors == 0
        # The dead shard's traffic landed on live successors.
        loads = [server.stats.total for server in cluster.servers]
        assert sum(s.gets + s.sets for s in loads) == report.result.issued

    def test_no_injector_no_faults_section(self):
        cluster, compiled = make_cluster_and_trace()
        report = run_serve(cluster, compiled, serve_config(), seed=0)
        assert report.faults is None
        assert report.result.windows == []
        assert run_serve.__module__  # keep flake happy about usage

    def test_restart_rebuilds_cold_through_factories(self):
        cluster, compiled = make_cluster_and_trace()
        attach(cluster)
        run_serve(cluster, compiled, serve_config(), seed=0)
        # After the restart the shard is live again and serving.
        assert all(cluster.live_mask())
        assert cluster.servers[1].stats.total.gets > 0


class TestScenarioChaosServing:
    def make_scenario(self, **overrides):
        fields = dict(
            workload="zipf",
            workload_params=dict(ZIPF_PARAMS),
            scale=1.0,
            seed=0,
            cluster={"shards": 4},
            serve={"rate": 8000.0, "duration_s": 0.05, "arrivals": "fixed"},
            faults={"events": [dict(e) for e in FAULT_EVENTS]},
        )
        fields.update(overrides)
        return Scenario(**fields)

    def test_run_scenario_serves_through_faults(self):
        result = run_scenario(self.make_scenario())
        report = result.cluster_report
        serve = report["serve"]
        assert serve["faults"]["crashes"][0]["crash_at"] == 100
        assert serve["errors"] == 0
        # The offline faults section reports the same injector.
        assert report["faults"]["crashes"][0]["crash_at"] == 100

    def test_scenario_json_round_trip(self):
        scenario = self.make_scenario(
            serve={"rate": 8000.0, "duration_s": 0.05}
        )
        clone = Scenario.from_dict(json.loads(scenario.to_json()))
        assert clone.to_dict() == scenario.to_dict()
        # Normalization filled the serve defaults in.
        assert clone.serve["arrivals"] == "poisson"

    def test_sweepable_serve_and_fault_axes(self):
        from repro.sim.sweep import Sweep

        grid = Sweep(
            base=self.make_scenario(),
            axes={
                "serve.rate": [4000.0, 8000.0],
                "faults.policy": ["failover", "miss-through"],
            },
        ).scenarios()
        assert [s.serve["rate"] for s in grid] == [
            4000.0, 4000.0, 8000.0, 8000.0,
        ]
        assert [s.faults["policy"] for s in grid] == [
            "failover", "miss-through", "failover", "miss-through",
        ]

    def test_failover_beats_miss_through(self):
        """Served live through a mid-run crash, rerouting keeps more hits
        than answering the dead shard's keys as misses. Hit rates count
        cluster requests, not wall-clock, so the comparison is as stable
        as the fault timeline."""
        base = Scenario(
            workload="zipf",
            workload_params={
                "apps": 2, "num_keys": 2_000, "requests_per_app": 20_000,
            },
            scale=0.05,
            seed=0,
            cluster={"shards": 4},
        )
        serve = {"rate": 3_000.0, "duration_s": 0.4}
        events = [
            {"kind": "crash", "shard": 1, "at": 480},
            {"kind": "restart", "shard": 1, "at": 840},
        ]
        miss_through = run_scenario(
            base.replace(
                serve=serve,
                faults={"events": events, "policy": "miss-through"},
            )
        )
        chaos = run_scenario(
            base.replace(
                serve=serve,
                faults={"events": events, "policy": "failover"},
            )
        )
        dead = miss_through.cluster_report["serve"]["faults"]
        assert dead["dead_requests"] > 0
        assert chaos.overall_hit_rate > miss_through.overall_hit_rate

    def test_rendered_report_shows_outage_timeline(self):
        from repro.cluster.cluster import render_cluster_report

        result = run_scenario(self.make_scenario())
        text = "\n".join(render_cluster_report(result.cluster_report))
        assert "p99 timeline" in text
        assert "faults (failover)" in text


def test_outage_p99_is_the_worst_window_inside_the_outage():
    """``serve_chaos``'s outage column reads the windows that overlap
    ``[crash_at, restart_at)``, not the worst window of the run: here
    the final window is the slowest, and the two columns must differ."""
    from repro.experiments.serve_chaos import _window_p99s

    def window(start, stop, p99, completed=10):
        return {"start": start, "stop": stop, "completed": completed,
                "p99_ms": p99}

    serve = {"faults": {"latency_timeline": [
        window(0, 100, 1.0),
        window(100, 200, 5.0),    # overlaps the outage
        window(200, 300, 4.0),    # overlaps the outage
        window(300, 400, 50.0, completed=0),  # unoccupied: ignored
        window(400, 500, 9.0),    # the slowest, after the restart
    ]}}
    assert _window_p99s(serve, 150, 250) == (5.0, 9.0)
    assert _window_p99s(serve, 150, 151) == (5.0, 9.0)
    assert _window_p99s(serve, 600, 700) == (0.0, 9.0)
