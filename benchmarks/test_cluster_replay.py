"""Cluster-replay benchmark: emits the ``BENCH_cluster.json`` artifact.

Times :meth:`repro.cluster.Cluster.replay_compiled` -- the one shipped
replay path -- on a 4-shard cluster:

* **static** -- steady-state hot-cache serving: a skewed-Zipf tenant
  pair (working set resident after a warm-up pass) replayed as GETs
  under replication 2, the standard "replicate the hot partition"
  deployment. One window, no barriers: the kernel alone.
* **rebalance** -- the mixed GET/SET trace with an epoch-driven load
  rebalancer attached: a window and a barrier per epoch.
* **faults** -- the mixed trace with a crash/restart schedule attached,
  plus a no-fault control run that gates (under ``BENCH_ENFORCE``) the
  fault plumbing's drag on the fault-free path at 10% of the checked-in
  baseline.
* **parallel** -- the mixed trace on a 2-worker pool against the
  in-process executor.

Correctness rides along: every mode replays a 20k-request slice next to
the naive per-request reference (``tests/cluster/reference.py``) and
must match it bit for bit. Timed rounds receive a prebuilt routing plan
(what a sweep's plan cache delivers); the one-time plan build cost is
recorded separately in the artifact.

Like ``test_replay_core``, throughput is normalized by a pure-Python
calibration loop so the checked-in baseline
(``benchmarks/BENCH_cluster_baseline.json``) can gate regressions across
machines: with ``BENCH_ENFORCE=1`` a normalized drop of more than 20%
fails. Without ``BENCH_ENFORCE`` (for example on a busy 1-CPU container)
the numbers are recorded and warned about only -- the ``test_sweep.py``
gating pattern. The end-to-end numbers a change is judged by live in the
performance ledger (``benchmarks/ledger``: ``cluster_static_rps``,
``cluster_dynamic_rps``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    RebalanceConfig,
    Rebalancer,
    build_routing_plan,
)
from repro.sim import GEOMETRY, load_workload, make_engine
from tests.cluster.helpers import counters_snapshot
from tests.cluster.reference import replay_reference

ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_cluster_baseline.json"

SHARDS = 4
REPLICATION = 2
ROUNDS = 3
#: Length of the slice replayed next to the per-request reference.
PARITY_REQUESTS = 20_000

#: Skewed hot-set tenants: enough distinct keys to spread over every
#: shard and replica, budgets covering the working set so the timed
#: pass serves from memory.
WORKLOAD_PARAMS = {
    "apps": 2,
    "num_keys": 80_000,
    "alpha": 1.1,
    "requests_per_app": 100_000,
    "budget_fraction": 1.0,
}

#: Module-level accumulator; ``test_write_artifact`` serializes it.
RESULTS: dict = {}


def _calibration_ops_per_sec(iterations: int = 200_000) -> float:
    """Machine-speed unit (same fixed loop as ``test_replay_core``)."""
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


def build_cluster(workload, parallel_workers: int = 0) -> Cluster:
    cluster = Cluster(
        ClusterConfig(
            shards=SHARDS,
            replication=REPLICATION,
            parallel_workers=parallel_workers,
        ),
        GEOMETRY,
    )
    for app in workload.app_names:
        cluster.add_app(
            app,
            workload.reservations[app],
            lambda shard, share, app=app: make_engine(
                "default", app, share, scale=workload.scale, seed=shard
            ),
        )
    return cluster


def with_rebalancer(cluster: Cluster, epoch_requests: int) -> Cluster:
    cluster.attach_rebalancer(
        Rebalancer(
            cluster,
            RebalanceConfig(
                epoch_requests=epoch_requests,
                credit_bytes=65536.0,
                policy="load",
            ),
            seed=0,
        )
    )
    return cluster


def with_faults(cluster: Cluster, requests: int) -> Cluster:
    """Crash shard 1 at 35% of the trace, restart it at 55%."""
    schedule = FaultSchedule(
        events=(
            FaultEvent("crash", 1, int(requests * 0.35)),
            FaultEvent("restart", 1, int(requests * 0.55)),
        )
    )
    cluster.attach_faults(FaultInjector(cluster, schedule))
    return cluster


def epoch_for(requests: int) -> int:
    return max(50, requests // 32)


#: How each benchmarked mode dresses a fresh cluster for a trace of
#: ``requests`` requests (shared by the timed tests and the parity check).
MODES = {
    "static": lambda cluster, requests: cluster,
    "rebalance": lambda cluster, requests: with_rebalancer(
        cluster, epoch_for(requests)
    ),
    "faults": lambda cluster, requests: with_faults(cluster, requests),
}


def _shard_counters(cluster):
    return [counters_snapshot(server.stats) for server in cluster.servers]


def best_cold_replay_rate(workload, dress, parallel_workers: int = 0):
    """Best-of-``ROUNDS`` req/s of one cold replay of the mixed trace on
    a freshly built, freshly dressed cluster (plan prebuilt, untimed).
    Returns ``(rate, cluster)`` -- the last round's cluster."""
    compiled = workload.compiled
    best = None
    for _ in range(ROUNDS):
        cluster = dress(
            build_cluster(workload, parallel_workers), len(compiled)
        )
        plan = build_routing_plan(compiled, cluster.ring, cluster.replication)
        started = time.perf_counter()
        cluster.replay_compiled(compiled, plan=plan)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return len(compiled) / best, cluster


@pytest.mark.parametrize("mode", sorted(MODES))
def test_replay_bit_identical_to_reference_on_slice(workload, mode):
    """The shipped replay against the naive per-request reference on the
    first 20k requests: per-shard counters, rebalance transfers and the
    fault report must all agree exactly."""
    piece = workload.compiled.slice(0, PARITY_REQUESTS)
    fast = MODES[mode](build_cluster(workload), len(piece))
    reference = MODES[mode](build_cluster(workload), len(piece))
    fast.replay_compiled(piece)
    replay_reference(reference, piece)
    assert _shard_counters(fast) == _shard_counters(reference)
    assert fast.report().to_dict() == reference.report().to_dict()


def test_static_replay(workload):
    compiled = workload.compiled
    gets = compiled.with_op("get")
    requests = len(gets)
    cluster = build_cluster(workload)
    mixed_plan = build_routing_plan(
        compiled, cluster.ring, cluster.replication
    )
    # Time only the plan the timed rounds replay with, so the artifact
    # reports the true once-per-(trace, ring) cost.
    started = time.perf_counter()
    get_plan = build_routing_plan(gets, cluster.ring, cluster.replication)
    plan_seconds = time.perf_counter() - started
    # Warm-up: fill the caches with the mixed trace, then stabilize
    # residency with one GET pass; the timed rounds then measure
    # steady-state serving.
    cluster.replay_compiled(compiled, plan=mixed_plan)
    cluster.replay_compiled(gets, plan=get_plan)
    best = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        cluster.replay_compiled(gets, plan=get_plan)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    rate = requests / best
    RESULTS["static"] = {
        "shards": SHARDS,
        "replication": REPLICATION,
        "requests": requests,
        "requests_per_sec": rate,
        "plan_build_seconds": plan_seconds,
    }
    print(
        f"\n[cluster-static] {SHARDS} shards x{REPLICATION}: "
        f"{rate:,.0f} req/s (plan build {plan_seconds * 1e3:.0f} ms, "
        f"best of {ROUNDS})"
    )
    assert rate > 0


def test_rebalance_replay(workload):
    requests = len(workload.compiled)
    rate, cluster = best_cold_replay_rate(workload, MODES["rebalance"])
    RESULTS["rebalance"] = {
        "shards": SHARDS,
        "replication": REPLICATION,
        "requests": requests,
        "epoch_requests": epoch_for(requests),
        "transfers": cluster.rebalancer.transfers,
        "requests_per_sec": rate,
    }
    print(
        f"\n[cluster-rebalance] epochs of {epoch_for(requests)}: "
        f"{rate:,.0f} req/s, {cluster.rebalancer.transfers} transfer(s) "
        f"(best of {ROUNDS})"
    )
    assert rate > 0


def test_faulted_replay(workload):
    """Crash/restart replay throughput, plus the no-fault drag gate.

    The fault hooks only engage when an injector is attached, so the
    plain replay of the identical mixed trace is the control: under
    ``BENCH_ENFORCE`` its normalized throughput must stay within 10% of
    the checked-in baseline (the ``rebalance`` entry is the closest
    comparator -- same trace and cluster, plus epoch machinery this run
    does not even pay for).
    """
    requests = len(workload.compiled)
    no_fault_rate, _ = best_cold_replay_rate(workload, MODES["static"])
    rate, cluster = best_cold_replay_rate(workload, MODES["faults"])
    report = cluster.fault_injector.to_dict()
    fault_overhead = no_fault_rate / rate
    RESULTS["faults"] = {
        "shards": SHARDS,
        "replication": REPLICATION,
        "requests": requests,
        "crash_at": report["crashes"][0]["crash_at"],
        "restart_at": report["crashes"][0]["restart_at"],
        "no_fault_requests_per_sec": no_fault_rate,
        "requests_per_sec": rate,
        "no_fault_over_faulted": fault_overhead,
    }
    print(
        f"\n[cluster-faults] crash@{report['crashes'][0]['crash_at']:,}/"
        f"restart@{report['crashes'][0]['restart_at']:,}: {rate:,.0f} "
        f"req/s; no-fault control {no_fault_rate:,.0f} req/s "
        f"({fault_overhead:.2f}x the faulted run, best of {ROUNDS})"
    )
    assert rate > 0
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
        reference = (
            baseline.get("replays", {})
            .get("rebalance", {})
            .get("normalized_score")
        )
        if reference is not None:
            normalized = no_fault_rate / _calibration_ops_per_sec()
            message = (
                f"no-fault replay normalized {normalized:.4f} fell "
                f"below 90% of the baseline {reference:.4f}: the fault "
                "plumbing is dragging the fault-free path"
            )
            if normalized < reference * 0.9:
                if os.environ.get("BENCH_ENFORCE"):
                    pytest.fail(message)
                print(f"WARNING: {message}")


PARALLEL_WORKERS = 2


def test_parallel_replay_two_workers(workload):
    """The 2-worker pool vs the in-process executor.

    Parallel replays rebuild worker engines cold, so every round times a
    fresh single replay (the rebalance-bench shape) -- never the warmed
    multi-replay the static bench uses, which the pool refuses. Parity
    against the in-process replay is asserted unconditionally; the
    speedup gate engages only under ``BENCH_ENFORCE`` on machines with
    at least ``PARALLEL_WORKERS`` CPUs (a 1-CPU container records IPC
    overhead instead of speedup, which the artifact's ``parallel`` entry
    tracks as its own floor).
    """
    requests = len(workload.compiled)
    serial_rate, serial = best_cold_replay_rate(workload, MODES["static"])
    rate, parallel = best_cold_replay_rate(
        workload, MODES["static"], parallel_workers=PARALLEL_WORKERS
    )
    assert _shard_counters(parallel) == _shard_counters(serial)
    speedup = rate / serial_rate
    cpus = os.cpu_count() or 1
    RESULTS["parallel"] = {
        "shards": SHARDS,
        "replication": REPLICATION,
        "workers": PARALLEL_WORKERS,
        "requests": requests,
        "cpus": cpus,
        "serial_requests_per_sec": serial_rate,
        "requests_per_sec": rate,
        "speedup": speedup,
    }
    print(
        f"\n[cluster-parallel] {PARALLEL_WORKERS} workers on {cpus} "
        f"CPU(s): in-process {serial_rate:,.0f} req/s, pool "
        f"{rate:,.0f} req/s = {speedup:.2f}x (cold replays, best of "
        f"{ROUNDS})"
    )
    if os.environ.get("BENCH_ENFORCE") and cpus >= PARALLEL_WORKERS:
        assert speedup >= 1.2, (
            f"{PARALLEL_WORKERS}-worker parallel replay speedup "
            f"{speedup:.2f}x < 1.2x on a {cpus}-CPU machine"
        )
    elif cpus >= PARALLEL_WORKERS:
        if speedup < 1.2:
            print(
                f"WARNING: parallel replay speedup {speedup:.2f}x < 1.2x"
            )
    else:
        # One CPU: parallelism cannot pay; parity checked above.
        assert speedup > 0.0


def build_artifact_payload(results: dict, calibration: float) -> dict:
    """The serialized artifact: raw rates plus calibration-normalized
    scores (the cross-machine comparable the baseline gates on)."""
    return {
        "workload": dict(WORKLOAD_PARAMS, workload="zipf", seed=0),
        "calibration_ops_per_sec": calibration,
        "replays": {
            name: dict(
                entry,
                normalized_score=entry["requests_per_sec"] / calibration,
            )
            for name, entry in results.items()
        },
    }


def regression_failures(
    payload: dict, baseline: dict, drop_floor: float = 0.8
) -> list:
    """The pure half of the benchmark gate: every way ``payload`` fails
    against ``baseline``, as messages (empty list = green).

    Kept free of environment reads and pytest calls so the gate itself
    is testable: a synthetic regression must produce failures whether or
    not ``BENCH_ENFORCE`` is set -- only the *consequence* (fail vs
    warn) is environmental, and ``apply_gate`` owns that.
    """
    failures = []
    for name, entry in baseline.get("replays", {}).items():
        current = payload.get("replays", {}).get(name)
        if current is None:
            continue
        floor = entry["normalized_score"] * drop_floor
        if current["normalized_score"] < floor:
            failures.append(
                f"{name}: normalized {current['normalized_score']:.4f} "
                f"< {drop_floor:.0%} of baseline "
                f"{entry['normalized_score']:.4f}"
            )
    return failures


def apply_gate(failures: list, enforce: bool) -> None:
    """Fail under ``BENCH_ENFORCE``, warn otherwise -- the
    ``test_sweep.py`` convention."""
    if not failures:
        return
    message = "cluster replay benchmark gate: " + "; ".join(failures)
    if enforce:
        pytest.fail(message)
    print(f"WARNING: {message}")


def test_gate_fails_on_synthetic_regression():
    """The gate must actually bite: a payload whose rebalance score is
    half the baseline's fails under enforcement and only warns without
    it, while a score inside the 20% band passes."""
    baseline = {
        "replays": {
            "rebalance": {"normalized_score": 0.05},
            "static": {"normalized_score": 0.07},
        }
    }
    payload = {
        "replays": {
            "static": {"normalized_score": 0.069},
            "rebalance": {"normalized_score": 0.025},
        }
    }
    failures = regression_failures(payload, baseline)
    assert len(failures) == 1
    assert "rebalance" in failures[0]
    with pytest.raises(pytest.fail.Exception):
        apply_gate(failures, enforce=True)
    apply_gate(failures, enforce=False)  # warn path: must not raise
    # A payload matching the baseline is green both ways.
    assert regression_failures(baseline, baseline) == []
    apply_gate([], enforce=True)


def test_write_artifact():
    if "static" not in RESULTS:
        pytest.skip("throughput tests were deselected; nothing to write")
    calibration = _calibration_ops_per_sec()
    payload = build_artifact_payload(RESULTS, calibration)
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(f"\nwrote {ARTIFACT_PATH}")
    baseline = (
        json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
        if BASELINE_PATH.exists()
        else {}
    )
    apply_gate(
        regression_failures(payload, baseline),
        enforce=bool(os.environ.get("BENCH_ENFORCE")),
    )
