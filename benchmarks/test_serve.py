"""Live-serving benchmark: emits the ``BENCH_serve.json`` artifact.

Three measurements:

* **service** -- ``CacheService.execute`` (one ``process_batch`` per
  queue drain, the only execution path the server has) on the batch
  size the server's worker actually drains under pipelined load.
* **loopback** -- end-to-end served throughput and p99 latency through
  a real asyncio TCP socket (``run_serve`` with the ``tcp``
  transport), overdriven in queue mode so the achieved rate is the
  server's sustainable capacity, not the offered schedule.
* **chaos** -- the drag of arming the fault-injection machinery on a
  run where no fault ever fires: with ``BENCH_ENFORCE`` the armed run
  must keep >= 90% of plain throughput. A real crash+restart run with
  client retries rides along in the artifact, ungated.

Like ``test_cluster_replay``, throughput is normalized by a
pure-Python calibration loop so the checked-in baseline
(``benchmarks/BENCH_serve_baseline.json``) gates regressions across
machines: with ``BENCH_ENFORCE=1`` a normalized drop of more than 20%
fails. Without it the numbers are recorded and warned about only.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.cache.slabs import SlabGeometry
from repro.cluster import Cluster, ClusterConfig
from repro.serve import ServeConfig, run_serve
from repro.serve.protocol import Command
from repro.serve.service import CacheService
from repro.sim import load_workload

ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_serve_baseline.json"

SHARDS = 4
ROUNDS = 3
#: The worker's default drain size -- the batch the service really sees
#: under pipelined load (``DEFAULT_MAX_BATCH``).
BATCH_SIZE = 256
BATCH_COMMANDS = 20_000

WORKLOAD_PARAMS = {
    "apps": 2,
    "num_keys": 20_000,
    "alpha": 1.1,
    "requests_per_app": 40_000,
    "budget_fraction": 1.0,
}

#: Module-level accumulator; ``test_write_artifact`` serializes it.
RESULTS: dict = {}


def _calibration_ops_per_sec(iterations: int = 200_000) -> float:
    """Machine-speed unit (same fixed loop as ``test_cluster_replay``)."""
    best = 0.0
    for _ in range(3):
        table: dict = {}
        started = time.perf_counter()
        for i in range(iterations):
            key = i & 1023
            table[key] = table.get(key, 0) + 1
        elapsed = time.perf_counter() - started
        best = max(best, iterations / elapsed)
    return best


@pytest.fixture(scope="module")
def workload():
    return load_workload("zipf", scale=1.0, seed=0, **WORKLOAD_PARAMS)


def make_cluster() -> Cluster:
    return Cluster(ClusterConfig(shards=SHARDS), SlabGeometry.default())


def trace_commands(workload, limit: int):
    commands = []
    for request in workload.compiled.iter_requests():
        if len(commands) >= limit:
            break
        if request.op == "set":
            size = max(1, min(int(request.value_size), 16_384))
            commands.append(
                Command(op="set", keys=[request.key], data=b"v" * size)
            )
        else:
            commands.append(Command(op="get", keys=[request.key]))
    return commands


def test_service_execute_throughput(workload):
    commands = trace_commands(workload, BATCH_COMMANDS)
    batches = [
        commands[i : i + BATCH_SIZE]
        for i in range(0, len(commands), BATCH_SIZE)
    ]
    best = None
    for _ in range(ROUNDS):
        service = CacheService(make_cluster())
        started = time.perf_counter()
        for batch in batches:
            service.execute(batch)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    rate = len(commands) / best
    RESULTS["service"] = {
        "shards": SHARDS,
        "batch_size": BATCH_SIZE,
        "commands": len(commands),
        "batch_commands_per_sec": rate,
    }
    print(
        f"\n[serve-service] batches of {BATCH_SIZE}: {rate:,.0f} cmd/s "
        f"(best of {ROUNDS})"
    )
    assert rate > 0


def test_loopback_tcp_throughput(workload):
    """Overdrive the TCP server in queue mode; achieved = capacity."""
    config = ServeConfig(
        rate=60_000.0,
        duration_s=0.5,
        arrivals="fixed",
        backpressure="queue",
        connections=4,
        transport="tcp",
    )
    best = None
    for _ in range(ROUNDS):
        report = run_serve(make_cluster(), workload.compiled, config, seed=0)
        result = report.result
        assert result.errors == 0
        assert result.completed == result.issued
        if best is None or result.achieved_rate > best.result.achieved_rate:
            best = report
    summary = best.result.histogram.summary_ms()
    RESULTS["loopback"] = {
        "shards": SHARDS,
        "connections": config.connections,
        "requests": best.result.issued,
        "achieved_requests_per_sec": best.result.achieved_rate,
        "p50_ms": summary["p50"],
        "p99_ms": summary["p99"],
        "mean_batch": (
            sum(best.queue_depths) / len(best.queue_depths)
            if best.queue_depths
            else 0.0
        ),
    }
    print(
        f"\n[serve-loopback] tcp x{config.connections}: achieved "
        f"{best.result.achieved_rate:,.0f} req/s, p50 "
        f"{summary['p50']:.2f} ms, p99 {summary['p99']:.2f} ms "
        f"(best of {ROUNDS})"
    )
    assert best.result.achieved_rate > 0


def test_chaos_overhead(workload):
    """Arming the fault machinery must not tax the no-fault hot path.

    Serves the same fixed-rate run twice in memory transport: once
    plain, once with a :class:`FaultInjector` attached whose only
    events lie past the end of the run -- the barrier bookkeeping and
    per-window latency timeline are live, but no crash ever fires.
    Under ``BENCH_ENFORCE`` the armed run must keep >= 90% of the
    plain run's throughput (the <=10% drag budget). A third, real
    crash+restart run with client retries is recorded for the artifact
    but not gated: its throughput legitimately drops while a shard is
    down.
    """
    from repro.cluster.faults import FaultEvent, FaultInjector, FaultSchedule

    config = ServeConfig(
        rate=300_000.0,
        duration_s=0.2,
        arrivals="fixed",
        backpressure="queue",
        connections=2,
        transport="memory",
    )
    total = int(config.rate * config.duration_s)

    def measure(schedule, retry=None):
        run_config = (
            config
            if retry is None
            else ServeConfig(**dict(config.to_dict(), retry=retry))
        )
        best = None
        for _ in range(ROUNDS):
            cluster = make_cluster()
            if schedule is not None:
                cluster.attach_faults(FaultInjector(cluster, schedule))
            report = run_serve(cluster, workload.compiled, run_config, seed=0)
            rate = report.result.achieved_rate
            if best is None or rate > best:
                best = rate
        return best

    beyond = FaultSchedule(
        events=(
            FaultEvent(kind="crash", shard=1, at=total * 10),
            FaultEvent(kind="restart", shard=1, at=total * 20),
        )
    )
    live = FaultSchedule(
        events=(
            FaultEvent(kind="crash", shard=1, at=total // 2),
            FaultEvent(kind="restart", shard=1, at=(3 * total) // 4),
        )
    )
    plain = measure(None)
    armed = measure(beyond)
    crashed = measure(
        live, retry={"max_attempts": 3, "base_backoff_s": 0.0005}
    )
    drag = armed / plain
    RESULTS["chaos"] = {
        "shards": SHARDS,
        "requests": total,
        "plain_requests_per_sec": plain,
        "armed_requests_per_sec": armed,
        "armed_over_plain": drag,
        "crash_requests_per_sec": crashed,
    }
    print(
        f"\n[serve-chaos] plain {plain:,.0f} req/s, armed {armed:,.0f} "
        f"req/s ({drag:.2f}x), crash+retry {crashed:,.0f} req/s "
        f"(best of {ROUNDS})"
    )
    if drag < 0.9:
        message = (
            f"armed fault machinery drags no-fault serve throughput to "
            f"{drag:.2f}x plain (floor: 0.90x)"
        )
        if os.environ.get("BENCH_ENFORCE"):
            pytest.fail(message)
        print(f"WARNING: {message}")


def test_write_artifact():
    if "service" not in RESULTS:
        pytest.skip("throughput tests were deselected; nothing to write")
    calibration = _calibration_ops_per_sec()
    payload = {
        "workload": dict(WORKLOAD_PARAMS, workload="zipf", seed=0),
        "calibration_ops_per_sec": calibration,
        "service": dict(
            RESULTS["service"],
            normalized_score=(
                RESULTS["service"]["batch_commands_per_sec"] / calibration
            ),
        ),
    }
    if "loopback" in RESULTS:
        payload["loopback"] = dict(
            RESULTS["loopback"],
            normalized_score=(
                RESULTS["loopback"]["achieved_requests_per_sec"]
                / calibration
            ),
        )
    if "chaos" in RESULTS:
        payload["chaos"] = dict(
            RESULTS["chaos"],
            normalized_score=(
                RESULTS["chaos"]["armed_requests_per_sec"] / calibration
            ),
        )
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(f"\nwrote {ARTIFACT_PATH}")

    if not BASELINE_PATH.exists():
        return
    enforce = bool(os.environ.get("BENCH_ENFORCE"))
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    regressions = []
    for name in ("service", "loopback"):
        reference = baseline.get(name, {}).get("normalized_score")
        current = payload.get(name, {}).get("normalized_score")
        if reference is None or current is None:
            continue
        if current < reference * 0.8:
            regressions.append(
                f"{name}: normalized {current:.4f} < 80% of baseline "
                f"{reference:.4f}"
            )
    if regressions:
        message = "serve throughput regressed >20%: " + "; ".join(
            regressions
        )
        if enforce:
            pytest.fail(message)
        else:
            print(f"WARNING: {message}")
