"""One run: set up, offline phases, serve phases, checks, metrics."""

from __future__ import annotations

import gc
import json
import os
import resource
import time
from pathlib import Path
from typing import Dict, List, Optional

import inputs
import layers
import quantiles
from calibration import Host
from offline import CheckFailed, Offline
from program import ServerProcess
from serving import Serving
from spans import Tracer

#: How ``--seconds`` is divided between the timed phases of an untraced
#: run: the five offline phases, and the closed loop.
OFFLINE_SHARE = 0.7
CAPACITY_SHARE = 0.3
#: A traced run spends this share of ``--seconds`` on those phases and
#: the rest on the open-loop phases and the per-layer measurements.
TRACED_PHASE_SHARE = 0.5
#: Share of ``--seconds`` each open-loop phase of a traced run lasts.
OPEN_LOOP_SHARE = 0.08

MANIFEST = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def metric(value: float, unit: str, samples=None, raw=None) -> Dict[str, object]:
    """A reported figure: its value, the quartiles and count of the
    samples it is the median of, and -- for a figure reported at
    reference host speed -- the median as measured."""
    entry: Dict[str, object] = {"value": float(value), "unit": unit}
    if samples is not None and len(samples):
        entry.update(quantiles.summary(list(samples)))
    if raw is not None:
        entry["as_measured"] = float(raw)
    return entry


class Run:
    def __init__(self, arguments, scratch: Path, provenance: Dict[str, object]):
        self.arguments = arguments
        self.workload = inputs.WORKLOADS[arguments.workload]
        self.sizes = inputs.SMOKE if arguments.smoke else inputs.FULL
        self.seed = arguments.seed
        self.scratch = scratch
        self.provenance = provenance
        self.tracer = Tracer(bool(arguments.trace))
        self.host = Host()
        self.server: Optional[ServerProcess] = None
        self.serving: Optional[Serving] = None
        self.checks: List[str] = []
        self.notes: List[str] = []
        self.setups: List[float] = []
        self.setups_raw: List[float] = []
        self.setup_factors: List[float] = []
        self.trace = None
        seconds = arguments.seconds
        if arguments.trace:
            seconds *= TRACED_PHASE_SHARE
        self.phase_seconds = seconds
        # Everything the program or the harness writes stays in the
        # checkout: the trace cache, and Python's own temporary files.
        os.environ["TMPDIR"] = str(scratch)
        self.server_env = dict(os.environ, PYTHONPATH=str(MANIFEST.parent / "src"))

    def reap(self) -> None:
        """Stop whatever is still running (normal exits already did)."""
        if self.serving is not None:
            self.serving.close()
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- set-up --------------------------------------------------------

    def set_up(self, index: int) -> float:
        """From an empty trace cache to a server answering ``stats``
        and engines built for every offline phase."""
        from repro.sim import build_cluster, build_server
        from repro.cluster import get_routing_plan
        from repro.workloads.compiled import GLOBAL_TRACE_CACHE

        cache = self.scratch / f"cache-{index}"
        cache.mkdir()
        GLOBAL_TRACE_CACHE.directory = cache
        GLOBAL_TRACE_CACHE.clear_memory()
        self.server_env["REPRO_TRACE_CACHE"] = str(cache)
        tracer = self.tracer
        tracer.phase = f"setup{index}"
        host = self.host
        raw = 0.0
        elapsed = 0.0
        before = host.factor()
        started = time.perf_counter()

        def stage_done() -> None:
            """Close one stage of the set-up: its wall, as measured and
            at the reference speed of the calibrations around it."""
            nonlocal raw, elapsed, before, started
            wall = time.perf_counter() - started
            after = host.factor()
            raw += wall
            elapsed += wall * (before + after) / 2.0
            before = after
            started = time.perf_counter()

        with layers.setup_spans(tracer):
            with tracer.span("setup.load_trace"):
                trace = inputs.load_trace(self.workload, self.seed, self.sizes)
            stage_done()
            offline = Offline(self.workload, trace, self.seed, tracer, host)
            with tracer.span("sim.build_cluster"):
                cluster = build_cluster(offline.scenarios["static"], trace)
            with tracer.span("setup.routing_plan"):
                get_routing_plan(trace.compiled, cluster.ring, cluster.replication)
            for name in ("stock", "cliffhanger"):
                with tracer.span("sim.build_server"):
                    build_server(offline.scenarios[name], trace)
        self.reap()
        self.server = ServerProcess(
            [
                "--workload", self.workload.server_workload,
                "--scale", repr(inputs.server_scale(self.workload, self.sizes)),
                "--seed", str(self.seed),
                "--shards", "4",
            ],
            self.server_env,
        )
        with tracer.span("setup.server_start"):
            self.server.start()
        stage_done()
        host.pin_server(self.server.process.pid)
        self.setups_raw.append(raw)
        self.setup_factors.append(elapsed / raw)
        tracer.phase = ""
        self.compiled_bytes = sum(
            path.stat().st_size
            for path in cache.glob("*.npz")
            if not path.name.endswith(".plan.npz")
        )
        self.trace = trace
        self.offline = offline
        return elapsed

    # -- the run -------------------------------------------------------

    def execute(self) -> Dict[str, object]:
        errors: List[str] = []
        metrics: Dict[str, Dict[str, object]] = {}
        try:
            self.measure()
            metrics = self.metrics()
        except CheckFailed as failure:
            errors.append(str(failure))
        serving = self.serving
        attempted = serving.attempted if serving else 0
        failed = serving.failed if serving else 0
        if failed:
            errors.append(
                f"{failed} failed operation(s): {'; '.join(serving.failures[:5])}"
            )
        invalid = serving.validity_notes() if serving else []
        if self.arguments.trace:
            self.tracer.write(self.arguments.out / "spans.jsonl")
        return {
            "schema": 1,
            "workload": self.workload.name,
            "provenance": self.provenance,
            "correct": not errors,
            "errors": errors,
            "valid": not invalid,
            "invalid_because": invalid,
            "attempted": max(1, attempted),
            "failed": failed,
            "checks": self.checks,
            "notes": self.notes,
            "metrics": metrics,
            "phases": serving.phase_table() if serving else {},
            "host": self.host_summary(),
        }

    def measure(self) -> None:
        arguments = self.arguments
        marks = [("start", time.perf_counter())]
        for index in range(self.sizes.setup_repetitions):
            self.setups.append(self.set_up(index))
        marks.append(("set-up", time.perf_counter()))
        offline = self.offline
        offline.run_phases(
            OFFLINE_SHARE * self.phase_seconds,
            # A traced run has no bound to hold and much else to do.
            self.sizes.min_repetitions - (1 if arguments.trace else 0),
            bool(arguments.trace),
        )
        marks.append(("offline phases", time.perf_counter()))
        self.checks += [
            "repetitions-identical", "request-counts", "static==parallel",
            "one-crash-one-restart", "budget-conserved", "no-shm-leak",
        ]
        if self.seed == 0 and not arguments.smoke:
            offline.check_digest(self.workload.name, arguments.pin_digest)
            self.checks.append("seed0-digest")

        open_seconds = OPEN_LOOP_SHARE * arguments.seconds
        capacity_seconds = CAPACITY_SHARE * self.phase_seconds
        open_rates = layers.open_loop_rates(self.workload) if arguments.trace else ()
        length = Serving.stream_length(
            capacity_seconds, self.sizes, open_rates, open_seconds
        )
        if self.workload.mix is not None:
            stream = inputs.mix_stream(
                self.workload.mix, self.seed, length, self.sizes
            )
        else:
            stream = inputs.trace_stream(self.trace.compiled, self.seed, length)
        self.stream = stream
        if arguments.trace:
            self.selftest_rps = layers.selftest(self, stream)
        serving = Serving(
            self.server, stream, self.seed, self.sizes, self.tracer, self.host
        )
        self.serving = serving
        # The generator allocates per request; without this, each of its
        # garbage collections would walk the traces and the stream built
        # above and show up as server latency.
        gc.collect()
        gc.freeze()
        serving.connect()
        marks.append(("stream", time.perf_counter()))
        serving.warm_up()
        if arguments.trace:
            layers.open_loops(self, serving, open_seconds)
        serving.measure_capacity(capacity_seconds)
        serving.check_totals()
        self.server_peak_rss_mb = self.server.peak_rss_mb()
        serving.stop_server()
        self.server = None
        marks.append(("serve phases", time.perf_counter()))
        self.checks += [
            "value-echo", "value-bytes", "set-stored", "stats-totals",
            "nothing-shed", "drained-exit-0",
        ]
        self.notes.append(
            "wall: "
            + ", ".join(
                f"{name} {now - before:.1f} s"
                for (_, before), (name, now) in zip(marks, marks[1:])
            )
        )

    # -- metrics -------------------------------------------------------

    def metrics(self) -> Dict[str, Dict[str, object]]:
        if self.arguments.trace:
            values = layers.metrics(self)
        else:
            values = self.end_to_end()
        declared = json.loads(MANIFEST.read_text())
        names = [
            entry["name"]
            for entry in declared["per_layer" if self.arguments.trace else "end_to_end"]
        ]
        missing = [name for name in names if name not in values]
        if missing:
            raise CheckFailed(f"metrics declared but not measured: {missing}")
        # Only what BENCHMARK.json declares is reported, in its order.
        return {name: values[name] for name in names}

    def end_to_end(self) -> Dict[str, Dict[str, object]]:
        """Every timed figure is the median over its repetitions (or
        closed-loop windows), each taken at reference host speed."""
        offline = self.offline
        serving = self.serving
        values: Dict[str, Dict[str, object]] = {}
        values["setup_s"] = metric(
            quantiles.median(self.setups), "s", self.setups,
            quantiles.median(self.setups_raw),
        )
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["peak_rss_mb"] = metric(own_rss + self.server_peak_rss_mb, "MB")
        for name, phase in (
            ("replay_stock_rps", "stock"),
            ("replay_cliffhanger_rps", "cliffhanger"),
            ("cluster_static_rps", "static"),
            ("cluster_dynamic_rps", "dynamic"),
        ):
            rates = offline.rates(phase)
            values[name] = metric(
                quantiles.median(rates), "req/s", rates,
                offline.requests / quantiles.median(offline.runs[phase].raw_walls),
            )
        values["serve_capacity_rps"] = metric(
            quantiles.median(serving.capacity_rates), "req/s",
            serving.capacity_rates, quantiles.median(serving.capacity_raw),
        )
        return values

    def host_summary(self) -> Dict[str, object]:
        factors = self.host.factors
        return {
            "pinned": self.host.pinned,
            "harness_cpu": self.host.harness_cpu,
            "server_cpu": self.host.server_cpu,
            "calibrations": len(factors),
            "speed_factor_median": quantiles.median(factors),
            "speed_factor_min": min(factors),
            "speed_factor_max": max(factors),
        }
