"""The offline surfaces: single-server replay and cluster replay.

Timed phases replay the workload's compiled trace, each with fresh
engines per repetition: scheme ``default`` and scheme ``cliffhanger``
through ``CacheServer.replay_compiled``; then
``repro.sim.replay_on_cluster`` on four shards *static* (no barriers),
*dynamic* (rebalance epochs plus one crash and one cold restart) and
*parallel* (static with two worker processes). Repetitions of the
phases alternate, so a slow spell of the host lands on all of them.
The parallel phase is timed only in a traced run (its figure is not
gated: two workers and a parent on two vCPUs land in one of two modes,
~0.17 s or ~0.30 s, run by run); an untraced run replays it once, for
the checks.

The replay is deterministic, which is what makes it checkable: every
repetition of a phase must produce identical counters, and serial and
parallel cluster replays identical reports.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

SHARDS = 4
REPLICATION = 2
REBALANCE_EPOCH_REQUESTS = 5_000
PARALLEL_WORKERS = 2

PHASES = ("stock", "cliffhanger", "static", "dynamic", "parallel")
#: Single-server replays go through ``replay_compiled`` in slices of
#: this many requests with a calibration between slices, so that a
#: second-long replay is not normalised by its two ends alone.
SLICE_REQUESTS = 30_000

#: Share of the offline time budget each phase may spend (cliffhanger
#: replays ~4.5x slower than stock, so it gets the time for its
#: repetitions).
PHASE_SHARE = {
    "stock": 0.16,
    "cliffhanger": 0.44,
    "static": 0.18,
    "dynamic": 0.22,
    "parallel": 0.16,
}

DIGEST_PATH = Path(__file__).with_name("digest.json")


class CheckFailed(Exception):
    """A correctness check of the benchmark did not hold."""


class PhaseRuns:
    """Repetitions of one phase: wall times as measured (``raw_walls``)
    and at reference host speed (``walls``), and the counters that must
    repeat exactly."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.raw_walls: List[float] = []
        self.walls: List[float] = []
        self.signature: Optional[str] = None
        self.detail: Dict[str, object] = {}

    def add(self, raw_wall: float, wall: float, signature: str,
            detail: Dict[str, object]) -> None:
        if self.signature is None:
            self.signature = signature
            self.detail = detail
        elif signature != self.signature:
            raise CheckFailed(
                f"phase {self.name}: repetition {len(self.walls) + 1} "
                f"produced different counters"
            )
        self.raw_walls.append(raw_wall)
        self.walls.append(wall)


def _counters(stats) -> Dict[str, List[int]]:
    return {
        app: [counter.get_hits, counter.get_misses, counter.sets]
        for app, counter in sorted(stats.by_app.items())
    }


class Offline:
    """Everything the offline phases share: the trace and its scenarios."""

    def __init__(self, workload, trace, seed: int, tracer, host) -> None:
        from repro.sim import Scenario

        self.host = host
        self.trace = trace
        self.compiled = trace.compiled
        self.requests = len(self.compiled)
        self.slices = [
            self.compiled.slice(low, low + SLICE_REQUESTS)
            for low in range(0, self.requests, SLICE_REQUESTS)
        ]
        self.tracer = tracer
        ops = self.compiled.op_codes
        self.expected_gets = sum(1 for op in ops if op == 0)
        self.expected_sets = sum(1 for op in ops if op == 1)
        cluster = {"shards": SHARDS, "replication": REPLICATION}

        def scenario(**blocks) -> Scenario:
            return Scenario(
                workload=workload.server_workload,
                scale=trace.scale,
                seed=seed,
                **blocks,
            )

        self.scenarios = {
            "stock": scenario(scheme="default"),
            "cliffhanger": scenario(scheme="cliffhanger"),
            "hill-only": scenario(scheme="hill-only"),
            "cliff-only": scenario(scheme="cliff-only"),
            "static": scenario(cluster=cluster),
            "dynamic": scenario(
                cluster=cluster,
                rebalance={
                    "epoch_requests": REBALANCE_EPOCH_REQUESTS,
                    "policy": "load",
                },
                faults={
                    "events": [
                        {"kind": "crash", "shard": 1, "at": self.requests // 3},
                        {"kind": "restart", "shard": 1, "at": self.requests // 2},
                    ],
                    "policy": "failover",
                },
            ),
            "parallel": scenario(
                cluster=dict(cluster, parallel_workers=PARALLEL_WORKERS)
            ),
        }
        self.runs = {name: PhaseRuns(name) for name in self.scenarios}

    # -- one repetition ------------------------------------------------

    def replay_server(self, name: str):
        """One fresh-engine replay of the whole trace through
        ``CacheServer.replay_compiled``, slice by slice: (wall as
        measured, wall at reference speed, counters that must repeat,
        detail)."""
        from repro.sim import build_server

        host = self.host
        with self.tracer.span("sim.build_server"):
            server = build_server(self.scenarios[name], self.trace)
        raw = 0.0
        wall = 0.0
        before = host.factor()
        with self.tracer.span(f"replay_compiled[{name}]"):
            for piece in self.slices:
                started = time.perf_counter()
                stats = server.replay_compiled(piece)
                elapsed = time.perf_counter() - started
                after = host.factor()
                raw += elapsed
                wall += elapsed * (before + after) / 2.0
                before = after
        self._check_counts(name, stats)
        ops = server.total_ops()
        return (
            raw,
            wall,
            json.dumps(_counters(stats)),
            {
                "hit_rates": {
                    app: stats.app_hit_rate(app) for app in sorted(stats.by_app)
                },
                "hit_rate": stats.total.hit_rate(),
                "ops": dict(vars(ops)),
                "ops_total": ops.total(),
            },
        )

    def replay_cluster(self, name: str):
        """One ``replay_on_cluster`` call, cluster construction
        included, between two calibrations."""
        from repro.sim import replay_on_cluster

        before = self.host.factor()
        started = time.perf_counter()
        with self.tracer.span(f"replay_on_cluster[{name}]"):
            if name == "parallel":
                # The workers are forked from this process and inherit
                # its CPU mask: give them every CPU while they exist.
                with self.host.unpinned():
                    cluster, stats, _ = replay_on_cluster(
                        self.scenarios[name], self.trace
                    )
            else:
                cluster, stats, _ = replay_on_cluster(
                    self.scenarios[name], self.trace
                )
        raw = time.perf_counter() - started
        wall = raw * (before + self.host.factor()) / 2.0
        self._check_counts(name, stats)
        report = cluster.report(stats=stats).to_dict()
        if name == "dynamic":
            self._check_dynamic(cluster, report)
        return raw, wall, json.dumps(report, sort_keys=True), report

    def repetition(self, name: str) -> None:
        """One repetition of a phase, recorded under it."""
        self.tracer.phase = name
        if name in ("static", "dynamic", "parallel"):
            measured = self.replay_cluster(name)
        else:
            measured = self.replay_server(name)
        self.runs[name].add(*measured)
        self.tracer.phase = ""

    # -- the timed phases ----------------------------------------------

    def run_phases(
        self, seconds: float, min_repetitions: int, time_parallel: bool
    ) -> None:
        """Alternate repetitions of the phases until each has used its
        share of ``seconds`` (and at least the minimum count)."""
        # Untimed: leaves the routing plan in the in-process cache, as
        # it is for every replay after a sweep's first.
        self.tracer.phase = "plan"
        self._first_cluster_replay()
        spent = {name: 0.0 for name in PHASES}
        active = list(PHASES)
        while active:
            for name in list(active):
                started = time.perf_counter()
                self.repetition(name)
                spent[name] += time.perf_counter() - started
                done = len(self.runs[name].walls)
                if (name == "parallel" and not time_parallel) or (
                    done >= min_repetitions
                    and spent[name] >= PHASE_SHARE[name] * seconds
                ):
                    active.remove(name)
        self._check_parallel()

    def _first_cluster_replay(self) -> None:
        from repro.sim import replay_on_cluster

        replay_on_cluster(self.scenarios["static"], self.trace)

    # -- checks --------------------------------------------------------

    def _check_counts(self, name: str, stats) -> None:
        total = stats.total
        if total.gets != self.expected_gets or total.sets != self.expected_sets:
            raise CheckFailed(
                f"phase {name}: replay counted {total.gets} GETs and "
                f"{total.sets} SETs, trace has {self.expected_gets} and "
                f"{self.expected_sets}"
            )

    def _check_dynamic(self, cluster, report: Dict[str, object]) -> None:
        crashes = report["faults"]["crashes"]
        if len(crashes) != 1 or crashes[0]["restart_at"] is None:
            raise CheckFailed(
                f"dynamic phase recorded {len(crashes)} crash(es), "
                f"restart_at={crashes and crashes[0]['restart_at']}"
            )
        reserved = sum(self.trace.reservations.values())
        budgets = sum(cluster.shard_budget(s) for s in range(cluster.shards))
        if abs(budgets - reserved) > 1e-6 * reserved:
            raise CheckFailed(
                f"dynamic phase ended with {budgets} budget bytes, "
                f"started with {reserved}"
            )

    def _check_parallel(self) -> None:
        if self.runs["static"].signature != self.runs["parallel"].signature:
            raise CheckFailed(
                "static and parallel cluster replays produced different reports"
            )
        leaked = [
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(f"repro-cols-{os.getpid()}-")
        ] if os.path.isdir("/dev/shm") else []
        if leaked:
            raise CheckFailed(f"shared-memory segments left behind: {leaked}")

    def check_digest(self, workload_name: str, update: bool) -> None:
        """Seed 0, full size: per-app hit rates must match the pinned
        ones (a replay that got faster by caching differently fails)."""
        observed = {
            name: {
                app: round(rate, 9)
                for app, rate in self.runs[name].detail["hit_rates"].items()
            }
            for name in ("stock", "cliffhanger")
        }
        observed["dynamic"] = round(
            self.runs["dynamic"].detail["overall_hit_rate"], 9
        )
        pinned = json.loads(DIGEST_PATH.read_text()) if DIGEST_PATH.exists() else {}
        if update:
            pinned[workload_name] = observed
            DIGEST_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        elif pinned.get(workload_name) != observed:
            raise CheckFailed(
                f"{workload_name}: seed-0 hit rates differ from "
                f"{DIGEST_PATH.name}"
            )

    # -- reading -------------------------------------------------------

    def rates(self, name: str) -> List[float]:
        """Requests per second of each repetition, at reference speed."""
        return [self.requests / wall for wall in self.runs[name].walls]
