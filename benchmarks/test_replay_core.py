"""Replay-core throughput benchmark: emits the ``BENCH_replay.json`` artifact.

Measures, at ``BENCH_SCALE``:

* raw compiled-trace replay throughput (requests/sec) of each engine
  scheme through :meth:`CacheServer.replay_compiled`;
* warm-cache wall time of the ``fig1`` and ``tab7`` experiment runners
  (the two benchmarks the fast-replay-core work is gated on).

Numbers are also normalized by a small pure-Python calibration loop so a
checked-in baseline (``benchmarks/BENCH_baseline.json``) can gate
regressions across machines of different speeds: with ``BENCH_ENFORCE=1``
(set in CI) a normalized throughput drop of more than 20% against the
baseline fails the run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.cache.server import CacheServer
from repro.experiments.registry import get_runner
from repro.sim import BENCH_SCALE, GEOMETRY, load_workload, make_engine

ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "BENCH_replay.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_baseline.json"

ENGINE_SCHEMES = ["default", "lsm", "hill", "cliffhanger"]
RUNNERS = [("fig1", {"scale": BENCH_SCALE}), ("tab7", {"scale": 0.2})]

#: Module-level accumulator; ``test_write_artifact`` (last in file order)
#: serializes it.
RESULTS: dict = {}


def _calibration_ops_per_sec(iterations: int = 200_000) -> float:
    """Machine-speed unit: a fixed dict/int workload, ops per second.

    Dividing measured throughput by this number yields a (roughly)
    machine-independent score, which is what the CI regression gate
    compares. Best of three rounds, like the replay measurements, so
    scheduler noise cannot trip the gate.
    """
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
def bench_trace():
    return load_workload("memcachier", scale=BENCH_SCALE, seed=0)


@pytest.mark.parametrize("scheme", ENGINE_SCHEMES)
def test_engine_replay_throughput(bench_trace, scheme):
    requests = len(bench_trace.compiled)
    best_elapsed = None
    for _ in range(3):  # best of 3: the gate must not see scheduler noise
        server = CacheServer(GEOMETRY)
        for app in bench_trace.app_names:
            server.add_app(
                make_engine(
                    scheme,
                    app,
                    bench_trace.reservations[app],
                    scale=bench_trace.scale,
                    seed=0,
                )
            )
        started = time.perf_counter()
        server.replay_compiled(bench_trace.compiled)
        elapsed = time.perf_counter() - started
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed = elapsed
        assert server.stats.total.gets > 0
    rps = requests / best_elapsed
    RESULTS[f"engine:{scheme}"] = {
        "requests": requests,
        "seconds": best_elapsed,
        "requests_per_sec": rps,
    }
    print(
        f"\n[{scheme}] {requests} requests in {best_elapsed:.3f}s "
        f"= {rps:,.0f} req/s (best of 3)"
    )
    assert rps > 0


@pytest.mark.parametrize("experiment_id,kwargs", RUNNERS)
def test_runner_warm_wall_time(experiment_id, kwargs):
    runner = get_runner(experiment_id)
    runner(seed=0, **kwargs)  # populate trace caches (untimed)
    started = time.perf_counter()
    result = runner(seed=0, **kwargs)
    elapsed = time.perf_counter() - started
    RESULTS[f"runner:{experiment_id}"] = {
        "kwargs": kwargs,
        "warm_seconds": elapsed,
    }
    print(f"\n[{experiment_id}] warm run: {elapsed:.3f}s")
    assert result.rows


def test_write_artifact():
    if not any(key.startswith("engine:") for key in RESULTS):
        pytest.skip("throughput tests were deselected; nothing to write")
    calibration = _calibration_ops_per_sec()
    payload = {
        "bench_scale": BENCH_SCALE,
        "calibration_ops_per_sec": calibration,
        "engines": {
            key.split(":", 1)[1]: dict(
                value,
                normalized_score=value["requests_per_sec"] / calibration,
            )
            for key, value in RESULTS.items()
            if key.startswith("engine:")
        },
        "runners": {
            key.split(":", 1)[1]: value
            for key, value in RESULTS.items()
            if key.startswith("runner:")
        },
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(f"\nwrote {ARTIFACT_PATH}")

    if not BASELINE_PATH.exists():
        return
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    regressions = []
    for scheme, entry in baseline.get("engines", {}).items():
        current = payload["engines"].get(scheme)
        if current is None:
            continue
        floor = entry["normalized_score"] * 0.8
        if current["normalized_score"] < floor:
            regressions.append(
                f"{scheme}: normalized {current['normalized_score']:.4f} "
                f"< 80% of baseline {entry['normalized_score']:.4f}"
            )
    if regressions:
        message = "replay throughput regressed >20%: " + "; ".join(regressions)
        if os.environ.get("BENCH_ENFORCE"):
            pytest.fail(message)
        else:
            print(f"WARNING: {message}")
