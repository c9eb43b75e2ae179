"""Micro-benchmark drivers for Tables 6 and 7.

The paper's protocol (section 5.6): warm the cache until eviction and
shadow queues are full, then measure. The worst case is an all-miss
workload (unique keys): every GET performs a shadow lookup and every
insertion causes evictions and shadow traffic.

Each measurement replays the same request stream through a baseline
engine (stock first-come-first-serve, no shadow queues) and through the
algorithm engine, then compares model-predicted per-request costs. The
same drivers also time real wall-clock throughput, so Table 7 reports a
measured slowdown beside the modeled one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.cache.engines import Engine, FirstComeFirstServeEngine
from repro.cache.server import CacheServer
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import OpCounter, StatsRegistry
from repro.core.engine import CliffhangerEngine, HillClimbEngine
from repro.perfmodel.costmodel import CostModel, overhead_percent
from repro.workloads.compiled import GLOBAL_TRACE_CACHE, CompiledTrace
from repro.workloads.facebook import UniqueKeyStream, FacebookETCStream

EngineFactory = Callable[[str, float, SlabGeometry], Engine]


@dataclass
class MicroBenchResult:
    """One engine's replay of one micro workload."""

    engine_name: str
    gets: int
    sets: int
    hits: int
    ops: OpCounter
    wall_seconds: float

    @property
    def requests(self) -> int:
        return self.gets + self.sets

    def model_cost(self, model: CostModel) -> float:
        return model.request_cost(self.ops, self.gets, self.sets)

    def wall_throughput(self) -> float:
        return self.requests / self.wall_seconds if self.wall_seconds else 0.0


def _replay(
    engine: Engine, trace: CompiledTrace, warmup: int
) -> MicroBenchResult:
    """Warm up (uncounted), then replay counting ops and wall time.

    Both passes run through the replay kernel (a one-app
    :class:`CacheServer`), so measured wall times reflect engine work,
    not per-request object churn.
    """
    server = CacheServer(trace.geometry)
    server.add_app(engine)
    server.replay_compiled(trace.slice(0, warmup))
    # Discard the warm-up's operation counts and outcomes.
    engine.ops = OpCounter()
    server.stats = StatsRegistry()
    measured = trace.slice(warmup)
    started = time.perf_counter()
    total = server.replay_compiled(measured).total
    wall = time.perf_counter() - started
    return MicroBenchResult(
        engine_name=type(engine).__name__,
        gets=total.gets,
        sets=total.sets,
        hits=total.get_hits,
        ops=engine.ops,
        wall_seconds=wall,
    )


def _compiled_stream(
    stream, cache_key: str, num_requests: int, geometry: SlabGeometry
) -> CompiledTrace:
    """Compile (and cache) a micro-benchmark stream."""
    return GLOBAL_TRACE_CACHE.get_or_compile(
        cache_key,
        lambda: [stream.columns(num_requests, 100.0)],
        geometry,
    )


def _engines(fill_on_miss: bool) -> Dict[str, EngineFactory]:
    """Engine factories for the micro-benchmarks.

    ``fill_on_miss=False`` reproduces the paper's measurement protocol
    for the *miss* path (a real client issues the fill as its own SET,
    so GET cost must not absorb insertion work); the *hit* path needs
    fills enabled so the skewed stream actually establishes residency.
    """
    return {
        "default": lambda app, b, g: FirstComeFirstServeEngine(
            app, b, g, fill_on_miss=fill_on_miss
        ),
        "hill-climbing": lambda app, b, g: HillClimbEngine(
            app, b, g, fill_on_miss=fill_on_miss
        ),
        "cliffhanger": lambda app, b, g: CliffhangerEngine(
            app, b, g, fill_on_miss=fill_on_miss
        ),
    }


def measure_latency_overhead(
    num_requests: int = 30_000,
    budget_bytes: float = None,
    get_fraction: float = 0.967,
    all_miss: bool = True,
    model: CostModel = CostModel(),
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Table 6: % latency overhead vs the default engine.

    Returns ``{algorithm: {"get": pct, "set": pct}}``. With
    ``all_miss=True`` the stream uses unique keys (the paper's worst
    case); otherwise a skewed ETC stream measures the hit path.
    """
    geometry = SlabGeometry.default()
    if budget_bytes is None:
        if all_miss:
            # Worst case: keep the cache full so every operation pays
            # eviction and shadow-queue costs -- budget well below the
            # stream's footprint.
            budget_bytes = max(256 << 10, num_requests * 75)
        else:
            # Hit path: the working set must be resident, so hits (and
            # re-SETs of resident keys) pay no eviction work.
            budget_bytes = max(4 << 20, num_requests * 300)
    if all_miss:
        stream = UniqueKeyStream(
            app="micro", get_fraction=get_fraction, seed=seed
        )
        kind = f"unique-gf{get_fraction!r}"
    else:
        stream = FacebookETCStream(
            app="micro",
            num_keys=max(1000, num_requests // 50),
            get_fraction=get_fraction,
            seed=seed,
        )
        kind = f"etc-k{max(1000, num_requests // 50)}-gf{get_fraction!r}"
    warmup = num_requests // 4
    total = num_requests + warmup
    compiled = _compiled_stream(
        stream, f"micro-{kind}-seed{seed}-n{total}", total, geometry
    )

    # Split costs by op type: replay GET-only and SET-only variants so
    # per-op overheads are attributable (the aggregate mix would blur
    # them).
    def only(op: str) -> CompiledTrace:
        return compiled.with_op(op)

    factories = _engines(fill_on_miss=not all_miss)
    overheads: Dict[str, Dict[str, float]] = {}
    baseline_costs: Dict[str, float] = {}
    for op in ("get", "set"):
        base = _replay(
            factories["default"]("micro", budget_bytes, geometry),
            only(op),
            warmup,
        )
        baseline_costs[op] = base.model_cost(model)
    for name, factory in factories.items():
        if name == "default":
            continue
        overheads[name] = {}
        for op in ("get", "set"):
            engine = factory("micro", budget_bytes, geometry)
            result = _replay(engine, only(op), warmup)
            overheads[name][op] = overhead_percent(
                baseline_costs[op], result.model_cost(model)
            )
    return overheads


def measure_throughput_slowdown(
    mixes: Tuple[Tuple[float, float], ...] = (
        (0.967, 0.033),
        (0.5, 0.5),
        (0.1, 0.9),
    ),
    num_requests: int = 30_000,
    budget_bytes: float = None,
    model: CostModel = CostModel(),
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Table 7: throughput slowdown per GET/SET mix (cache full, all
    unique keys so the CPU-bound worst case is exercised).

    Returns one row per mix: ``{"get_pct", "set_pct", "slowdown_pct",
    "wall_slowdown_pct"}``. The paper reports hill climbing and
    Cliffhanger as identical here; we report Cliffhanger.
    """
    geometry = SlabGeometry.default()
    if budget_bytes is None:
        budget_bytes = max(256 << 10, num_requests * 75)
    rows: List[Dict[str, float]] = []
    warmup = num_requests // 4
    for get_fraction, set_fraction in mixes:
        stream = UniqueKeyStream(
            app="micro", get_fraction=get_fraction, seed=seed
        )
        total = num_requests + warmup
        compiled = _compiled_stream(
            stream,
            f"micro-unique-gf{get_fraction!r}-seed{seed}-n{total}",
            total,
            geometry,
        )
        base = _replay(
            FirstComeFirstServeEngine(
                "micro", budget_bytes, geometry, fill_on_miss=False
            ),
            compiled,
            warmup,
        )
        cliff = _replay(
            CliffhangerEngine(
                "micro", budget_bytes, geometry, fill_on_miss=False
            ),
            compiled,
            warmup,
        )
        base_throughput = model.throughput(base.ops, base.gets, base.sets)
        cliff_throughput = model.throughput(
            cliff.ops, cliff.gets, cliff.sets
        )
        slowdown = max(
            0.0, (1.0 - cliff_throughput / base_throughput) * 100.0
        )
        wall_slowdown = max(
            0.0,
            (1.0 - cliff.wall_throughput() / base.wall_throughput())
            * 100.0
            if base.wall_throughput()
            else 0.0,
        )
        rows.append(
            {
                "get_pct": get_fraction * 100.0,
                "set_pct": set_fraction * 100.0,
                "slowdown_pct": slowdown,
                "wall_slowdown_pct": wall_slowdown,
            }
        )
    return rows
