"""The traced run: per-layer numbers, all taken from outside.

Nothing under ``src/`` is edited. A span is opened here around a call
into a layer's public function; where a layer's work happens inside
another layer's call (``CompiledTrace.compile`` under
``load_workload``, ``process_batch`` under ``CacheService.execute``)
the inner function is wrapped for the length of the measurement and
put back. Hot per-request functions are never wrapped inside a timed
replay -- that would be the overhead, not the program; they are
measured alone, in short micro-benchmarks over the workload's own
requests.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np

import quantiles
import wire
from offline import CheckFailed
from serving import LEAD_IN_S, LIMIT_MS, selftest_rps
from spans import Tracer

#: Rows per ``process_batch`` / ``execute`` call in the micro-benches
#: (the server's ``max_batch``).
BATCH = 256
#: Commands the sans-IO protocol and service benches run over, accesses
#: per engine micro-bench, and seconds the in-process server bench and
#: the self-test each run -- all times ``Sizes.trace_factor``, so that a
#: ``--smoke`` run shrinks them too.
BENCH_COMMANDS = 12_000
ENGINE_ACCESSES = 20_000
SHORT_BENCH_S = 0.5


#: Empty spans timed to price one span, for ``trace_overhead_pct``.
SPAN_PROBES = 10_000


def _scaled(run, amount):
    return type(amount)(amount * run.sizes.trace_factor)


# ---------------------------------------------------------------------------
# Set-up spans
# ---------------------------------------------------------------------------


@contextmanager
def setup_spans(tracer) -> Iterator[None]:
    """While set-up runs, time the ``workloads`` and ``cluster`` calls
    it makes underneath ``load_workload`` / ``get_routing_plan``."""
    if not tracer.enabled:
        yield
        return
    import repro.cluster.routing as routing
    from repro.workloads.compiled import CompiledTrace

    compile_trace = CompiledTrace.compile

    def generate_then_compile(requests, geometry=None):
        # ``compile`` pulls a lazy generator, so generating and
        # compiling interleave; draining the generator first gives each
        # its own span (same result, one transient list).
        with tracer.span("workloads.generate"):
            materialized = list(requests)
        with tracer.span("workloads.compile"):
            return compile_trace(materialized, geometry)

    CompiledTrace.compile = staticmethod(generate_then_compile)
    try:
        with ExitStack() as stack:
            stack.enter_context(
                tracer.wrapped(CompiledTrace, "save", "workloads.cache_store")
            )
            stack.enter_context(
                tracer.wrapped(routing, "build_routing_plan", "cluster.plan_build")
            )
            yield
    finally:
        CompiledTrace.compile = classmethod(compile_trace.__func__)


def cache_load_seconds(run) -> float:
    """Warm-disk reload of everything set-up cached: the trace
    (``CompiledTrace.load``) and the plan (``RoutingPlan.load``)."""
    from repro.cluster import RoutingPlan, get_routing_plan
    from repro.sim import build_cluster
    from repro.workloads.compiled import GLOBAL_TRACE_CACHE, CompiledTrace

    import inputs

    tracer = run.tracer
    tracer.phase = "cache_load"
    GLOBAL_TRACE_CACHE.clear_memory()
    with tracer.wrapped(CompiledTrace, "load", "workloads.cache_load"):
        trace = inputs.load_trace(run.workload, run.seed, run.sizes)
    GLOBAL_TRACE_CACHE.clear_memory()
    cluster = build_cluster(run.offline.scenarios["static"], run.trace)
    with tracer.wrapped(RoutingPlan, "load", "cluster.plan_load"):
        # The routing digest is cached on the trace instance; use the
        # run's own trace so only the disk load is timed.
        get_routing_plan(run.trace.compiled, cluster.ring, cluster.replication)
    tracer.phase = ""
    del trace
    return tracer.total("workloads.cache_load")


# ---------------------------------------------------------------------------
# Engine micro-benchmarks (cache, core)
# ---------------------------------------------------------------------------


def engine_access_ns(scheme: str, seed: int, accesses: int) -> Dict[str, float]:
    """``process_fast`` on resident keys (hit) and on never-seen keys
    with the cache full (miss + fill + evict), nanoseconds per call."""
    from repro.sim import GEOMETRY, make_engine

    item_bytes = 256 + 16
    class_index = GEOMETRY.class_for_size(item_bytes + 48)
    chunk = GEOMETRY.chunk_size(class_index)
    resident = 4_000
    engine = make_engine(scheme, "bench", float(chunk * resident), seed=seed)
    access = engine.process_fast
    for index in range(resident):
        access(f"bench:r:{index}", 0, class_index, chunk, item_bytes)
    hot = [f"bench:r:{index}" for index in range(resident // 2, resident)]
    hits = [hot[index % len(hot)] for index in range(accesses)]
    cold = [f"bench:c:{index}" for index in range(accesses)]
    timings = {}
    for name, keys in (("hit", hits), ("miss_fill", cold)):
        started = time.perf_counter()
        for key in keys:
            access(key, 0, class_index, chunk, item_bytes)
        timings[name] = (time.perf_counter() - started) / len(keys) * 1e9
    return timings


def stats_record_ns() -> float:
    from repro.cache.stats import StatsRegistry, pack_outcome

    registry = StatsRegistry()
    record = registry.record_code
    codes = [pack_outcome(index % 3 != 0, index % 5) for index in range(64)]
    count = 100_000
    started = time.perf_counter()
    for index in range(count):
        record("bench", 0, codes[index & 63])
    return (time.perf_counter() - started) / count * 1e9


# ---------------------------------------------------------------------------
# Cluster micro-benchmarks
# ---------------------------------------------------------------------------


def stream_rows(stream: wire.Stream, count: int):
    """The first ``count`` stream requests as ``process_batch`` columns."""
    count = min(count, len(stream))
    table = stream.key_table
    keys = [table[key_id] for key_id in stream.key_ids[:count]]
    apps = [key.partition(":")[0] for key in keys]
    return keys, stream.ops[:count], stream.sizes[:count], apps


def route_ns_per_key(run) -> float:
    from repro.sim import build_cluster

    cluster = build_cluster(run.offline.scenarios["static"], run.trace)
    keys = run.trace.compiled.keys[: _scaled(run, BENCH_COMMANDS)]
    route = cluster.route
    started = time.perf_counter()
    for key in keys:
        route(key)
    return (time.perf_counter() - started) / len(keys) * 1e9


def process_batch_ns_per_req(run) -> float:
    from repro.sim import build_cluster

    cluster = build_cluster(run.offline.scenarios["static"], run.trace)
    keys, ops, sizes, apps = stream_rows(run.stream, _scaled(run, BENCH_COMMANDS))
    started = time.perf_counter()
    for low in range(0, len(keys), BATCH):
        high = low + BATCH
        cluster.process_batch(
            keys[low:high], ops[low:high], sizes[low:high], apps[low:high]
        )
    return (time.perf_counter() - started) / len(keys) * 1e9


def parallel_startup_s(run) -> float:
    """Wall of a two-worker replay that has next to nothing to replay:
    what the fan-out costs before the first request."""
    from repro.sim import SyntheticTrace, replay_on_cluster

    trace = run.trace
    tiny = SyntheticTrace(
        scale=trace.scale,
        seed=run.seed,
        reservations=dict(trace.reservations),
        requests_per_app={},
        compiled=trace.compiled.slice(0, 1_000),
    )
    started = time.perf_counter()
    replay_on_cluster(run.offline.scenarios["parallel"], tiny)
    return time.perf_counter() - started


# ---------------------------------------------------------------------------
# Serve micro-benchmarks (protocol, service, in-process server)
# ---------------------------------------------------------------------------


def protocol_ns(run) -> Dict[str, float]:
    """Sans-IO: the workload's own wire bytes through ``feed`` /
    ``next_event`` in 64 KiB feeds, and its GET replies through
    ``encode_value``."""
    from repro.serve.protocol import ProtocolParser, encode_value

    stream = run.stream
    count = min(_scaled(run, BENCH_COMMANDS), len(stream))
    data = stream.wire_bytes(0, count)
    parser = ProtocolParser()
    commands = []
    started = time.perf_counter()
    for low in range(0, len(data), 65536):
        parser.feed(data[low : low + 65536])
        while True:
            event = parser.next_event()
            if event is None:
                break
            commands.append(event.command)
    parse_s = time.perf_counter() - started
    if len(commands) != count or any(command is None for command in commands):
        raise RuntimeError("the parser did not return the commands it was fed")
    run.bench_commands = commands
    replies = [
        (
            stream.key_table[stream.key_ids[index]],
            stream.block[
                stream.offsets[index] : stream.offsets[index]
                + max(1, stream.sizes[index])
            ],
        )
        for index in range(count)
        if stream.ops[index] == wire.GET
    ]
    started = time.perf_counter()
    for key, payload in replies:
        encode_value(key, 0, payload)
    encode_s = time.perf_counter() - started
    return {
        "parse_ns_per_cmd": parse_s / count * 1e9,
        "parse_ns_per_kib": parse_s / (len(data) / 1024.0) * 1e9,
        "encode_ns_per_resp": encode_s / max(1, len(replies)) * 1e9,
    }


def service_ns(run) -> Dict[str, float]:
    """``CacheService.execute`` over 256-command batches, with the
    ``process_batch`` child span taken on the cluster instance."""
    from repro.serve.service import CacheService
    from repro.sim import build_cluster

    tracer = run.tracer
    tracer.phase = "service"
    cluster = build_cluster(run.offline.scenarios["static"], run.trace)
    service = CacheService(cluster)
    commands = run.bench_commands
    with tracer.wrapped(cluster, "process_batch", "cluster.process_batch"):
        for low in range(0, len(commands), BATCH):
            with tracer.span("serve.service.execute"):
                service.execute(commands[low : low + BATCH])
    tracer.phase = ""
    total = tracer.total("serve.service.execute", "service")
    own = tracer.self_time("serve.service.execute")
    return {
        "execute_ns_per_cmd": total / len(commands) * 1e9,
        "self_ns_per_cmd": own / len(commands) * 1e9,
    }


def memory_rps(run) -> float:
    """The whole server minus sockets: an in-process
    ``CacheServerProcess`` driven closed loop by two ``MemoryClient``
    connections, 32 pipelined commands per request."""
    from repro.serve.server import CacheServerProcess, MemoryClient
    from repro.serve.service import CacheService
    from repro.sim import build_cluster

    stream = run.stream
    cluster = build_cluster(run.offline.scenarios["static"], run.trace)
    pipeline = 32
    pipelines = [
        stream.wire_bytes(low, low + pipeline)
        for low in range(0, min(len(stream), 4_000 * pipeline) - pipeline, pipeline)
    ]

    async def drive() -> float:
        server = CacheServerProcess(CacheService(cluster))
        await server.start()
        done = 0
        deadline = time.perf_counter() + _scaled(run, SHORT_BENCH_S)

        async def client(offset: int) -> None:
            nonlocal done
            connection = MemoryClient(server)
            index = offset
            while time.perf_counter() < deadline:
                await connection.request(pipelines[index % len(pipelines)])
                done += pipeline
                index += 2

        started = time.perf_counter()
        try:
            await asyncio.gather(client(0), client(1))
        finally:
            await server.close()
        return done / (time.perf_counter() - started)

    return asyncio.run(drive())


# ---------------------------------------------------------------------------
# Extra load phases of a traced run
# ---------------------------------------------------------------------------


def open_loop_rates(workload) -> Tuple[int, int, int]:
    """The latency-limit ladder: lo, hi, 1.5 x hi."""
    return workload.lo_rps, workload.hi_rps, int(workload.hi_rps * 1.5)


def open_loops(run, serving, seconds: float) -> None:
    """Open-loop phases ``lo``, ``hi`` and ``probe``, ``seconds`` each
    after the lead-in."""
    for name, rate in zip(("lo", "hi", "probe"), open_loop_rates(run.workload)):
        serving.open_loop(name, rate, seconds)


def selftest(run, stream: wire.Stream) -> float:
    run.tracer.phase = "selftest"
    with run.tracer.span("loadgen.selftest"):
        rate = selftest_rps(stream, _scaled(run, SHORT_BENCH_S), run.seed, run.host)
    run.tracer.phase = ""
    return rate


def limit_latencies_ms(record) -> np.ndarray:
    """Latency of every request scheduled after the lead-in, a request
    without a checked reply counting as infinitely late."""
    load = record.load
    latency = np.where(load.answered, load.latency_s * 1e3, np.inf)
    return latency[load.scheduled_s >= LEAD_IN_S]


def meets_limit(record) -> bool:
    """p99 at or under the limit (a failed or unanswered request misses
    it) and no backlog still growing when the phase ends."""
    if quantiles.percentile(np.sort(limit_latencies_ms(record)), 0.99) > LIMIT_MS:
        return False
    windows = record.window_percentiles(0.5)
    if len(windows) >= 4:
        half = len(windows) // 2
        early = quantiles.median(windows[:half])
        late = quantiles.median(windows[half:])
        if late > 2.0 * early and late > LIMIT_MS / 2:
            return False
    return True


# ---------------------------------------------------------------------------
# The per-layer metrics
# ---------------------------------------------------------------------------


def metrics(run) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric. Times measured in this process are at
    reference host speed, like the end-to-end metrics they explain;
    what is read from the server subprocess (CPU time, latencies) is
    as measured."""
    from measure import metric

    tracer = run.tracer
    host = run.host
    offline = run.offline
    serving = run.serving
    requests = offline.requests
    records = serving.records
    values: Dict[str, Dict[str, object]] = {}

    def put(name: str, value: float, unit: str, samples=None) -> None:
        values[name] = metric(value, unit, samples)

    def wall(phase: str) -> float:
        return quantiles.median(offline.runs[phase].walls)

    def at_reference_speed(work):
        """``work()`` between two calibrations: its result (a time, or
        a dict of times) scaled to reference host speed."""
        before = host.factor()
        result = work()
        factor = (before + host.factor()) / 2.0
        if isinstance(result, dict):
            return {name: value * factor for name, value in result.items()}
        return result * factor

    def per_setup(span: str) -> List[float]:
        return [
            tracer.total(span, f"setup{index}") * run.setup_factors[index]
            for index in range(len(run.setups))
        ]

    put("host.speed_index", quantiles.median(host.factors), "x", host.factors)

    # workloads ---------------------------------------------------------
    for name, span in (
        ("workloads.generate_s", "workloads.generate"),
        ("workloads.compile_s", "workloads.compile"),
        ("workloads.cache_store_s", "workloads.cache_store"),
    ):
        samples = per_setup(span)
        put(name, quantiles.median(samples), "s", samples)
    put("workloads.cache_load_s",
        at_reference_speed(lambda: cache_load_seconds(run)), "s")
    put("workloads.trace_requests", requests, "count")
    put("workloads.compiled_bytes", run.compiled_bytes, "bytes")

    # sim ---------------------------------------------------------------
    for name, span in (
        ("sim.build_server_s", "sim.build_server"),
        ("sim.build_cluster_s", "sim.build_cluster"),
    ):
        samples = per_setup(span)
        put(name, quantiles.median(samples), "s", samples)

    # cache / core ------------------------------------------------------
    for layer, phase, scheme in (
        ("cache", "stock", "default"),
        ("core", "cliffhanger", "cliffhanger"),
    ):
        per_request = [w / requests * 1e9 for w in offline.runs[phase].walls]
        put(f"{layer}.replay_ns_per_req", quantiles.median(per_request), "ns",
            per_request)
        access = at_reference_speed(
            lambda: engine_access_ns(scheme, run.seed, _scaled(run, ENGINE_ACCESSES))
        )
        put(f"{layer}.hit_ns", access["hit"], "ns")
        put(f"{layer}.miss_fill_ns", access["miss_fill"], "ns")
        put(f"{layer}.hit_rate", offline.runs[phase].detail["hit_rate"], "ratio")
    put("cache.stats_record_ns", at_reference_speed(stats_record_ns), "ns")
    stock_ops = offline.runs["stock"].detail["ops"]
    for counter in ("hash_lookups", "promotes", "inserts", "evictions"):
        put(f"cache.{counter}", stock_ops[counter], "count")
    core = offline.runs["cliffhanger"].detail
    for counter in ("shadow_lookups", "shadow_inserts", "shadow_evictions", "routes"):
        put(f"core.{counter}", core["ops"][counter], "count")
    put("core.ops_per_req", core["ops_total"] / requests, "count")
    put("core.slowdown_x", wall("cliffhanger") / wall("stock"), "x")
    for scheme in ("hill-only", "cliff-only"):
        offline.repetition(scheme)
        put(f"core.{scheme.replace('-', '_')}_ns_per_req",
            offline.runs[scheme].walls[0] / requests * 1e9, "ns")

    # cluster -----------------------------------------------------------
    samples = per_setup("cluster.plan_build")
    put("cluster.plan_build_s", quantiles.median(samples), "s", samples)
    put("cluster.plan_load_s", tracer.total("cluster.plan_load"), "s")
    put("cluster.route_ns_per_key",
        at_reference_speed(lambda: route_ns_per_key(run)), "ns")
    put("cluster.partition_overhead_x", wall("static") / wall("stock"), "x")
    dynamic = offline.runs["dynamic"].detail
    epochs = dynamic["rebalance"]["epochs"]
    put("cluster.barrier_count", epochs + len(dynamic["faults"]["events"]), "count")
    put("cluster.rebalance_epochs", epochs, "count")
    put("cluster.rebalance_transfers", dynamic["rebalance"]["transfers"], "count")
    put("cluster.dead_requests", dynamic["faults"]["dead_requests"], "count")
    put("cluster.barrier_overhead_s", wall("dynamic") - wall("static"), "s")
    rates = offline.rates("parallel")
    put("cluster_parallel_rps", quantiles.median(rates), "req/s", rates)
    put("cluster.parallel_speedup_x", wall("static") / wall("parallel"), "x")
    with host.unpinned():
        startup = at_reference_speed(lambda: parallel_startup_s(run))
    put("cluster.parallel_startup_s", startup, "s")
    put("cluster.process_batch_ns_per_req",
        at_reference_speed(lambda: process_batch_ns_per_req(run)), "ns")

    # serve: sans-IO and in-process benches -----------------------------
    protocol = at_reference_speed(lambda: protocol_ns(run))
    for name, value in protocol.items():
        put(f"serve.protocol.{name}", value, "ns")
    service = at_reference_speed(lambda: service_ns(run))
    for name, value in service.items():
        put(f"serve.service.{name}", value, "ns")
    # A rate scales the other way: normalise its reciprocal, a time.
    in_memory = 1.0 / at_reference_speed(lambda: 1.0 / memory_rps(run))
    put("serve.server.memory_rps", in_memory, "req/s")
    put(
        "serve.server.queue_hop_ns_per_cmd",
        1e9 / in_memory
        - service["execute_ns_per_cmd"]
        - protocol["parse_ns_per_cmd"],
        "ns",
    )
    capacity = quantiles.median(serving.capacity_rates)
    put("serve.transport.ns_per_cmd", 1e9 / capacity - 1e9 / in_memory, "ns")

    # serve: the subprocess, read from outside --------------------------
    closed = serving.closed_records()
    for suffix, group in (
        ("lo", [records["lo"]]), ("hi", [records["hi"]]), ("sat", closed),
    ):
        replies = max(1, sum(int(r.load.answered.sum()) for r in group))
        cpu = sum(r.server_cpu_s for r in group)
        put(f"serve.server.cpu_ms_per_kreq_{suffix}", cpu * 1e3 / (replies / 1e3),
            "ms")
        put(f"serve.server.cpu_util_{suffix}",
            cpu / sum(r.wall_s for r in group), "ratio")
        put(f"serve.server.mean_batch_{suffix}",
            sum(r.delta("server_requests") for r in group)
            / max(1, sum(r.delta("server_batches") for r in group)), "count")
    put("serve.server.queue_depth_high_water",
        int(closed[-1].stats_after["queue_depth_high_water"]), "count")
    gets = sum(record.load.gets for record in records.values())
    hits = sum(record.load.hits for record in records.values())
    put("serve.server.hit_rate", hits / max(1, gets), "ratio")

    # serve: latency at fixed offered rates -----------------------------
    for name, phase, fraction in (
        ("serve_p50_ms_lo", "lo", 0.5),
        ("serve_p99_ms_lo", "lo", 0.99),
        ("serve_p99_ms_hi", "hi", 0.99),
    ):
        windows = records[phase].window_percentiles(fraction)
        if not windows:
            raise CheckFailed(f"phase {phase}: no window had enough samples")
        put(name, quantiles.median(windows), "ms", windows)
    met = 0
    for rate, name in zip(open_loop_rates(run.workload), ("lo", "hi", "probe")):
        if not meets_limit(records[name]):
            break
        met = rate
    put("serve.slo_rate_rps", met * run.sizes.rate_factor, "req/s")
    for suffix in ("lo", "hi"):
        record = records[suffix]
        latency = limit_latencies_ms(record)
        put(f"serve.slo_miss_share_{suffix}",
            float((latency > LIMIT_MS).mean()), "ratio")
        answered = np.sort(latency[np.isfinite(latency)])
        put(f"serve.p999_ms_{suffix}", quantiles.percentile(answered, 0.999), "ms")
        put(f"loadgen.send_lag_ms_p99_{suffix}", record.lag_p99_ms(), "ms")
    rtt = np.concatenate(
        [record.load.rtt_s[record.load.answered][::100] for record in records.values()]
    )
    put("loadgen.wire_rtt_ms_p50", float(np.median(rtt)) * 1e3, "ms")
    put("loadgen.cpu_util_sat", serving.generator_busy_share(), "ratio")
    put("loadgen.selftest_rps", run.selftest_rps, "req/s")
    raw_capacity = quantiles.median(serving.capacity_raw)
    if run.selftest_rps < 3.0 * raw_capacity:
        run.notes.append(
            f"generator self-test {run.selftest_rps:.0f} req/s is under 3x the "
            f"measured capacity {raw_capacity:.0f} req/s"
        )

    # what tracing itself cost ------------------------------------------
    # Spans are opened around whole replays, never inside them, so the
    # cost is a handful of spans per repetition: far below what timing
    # traced against untraced repetitions could resolve on this host
    # (+-5%). It is therefore computed: spans recorded during the stock
    # phase times the measured cost of one span, over the phase's wall.
    probe = Tracer(True)
    started = time.perf_counter()
    for _ in range(SPAN_PROBES):
        with probe.span("probe"):
            pass
    span_cost = (time.perf_counter() - started) / SPAN_PROBES
    stock_spans = sum(
        1 for span in tracer.spans if span is not None and span[4] == "stock"
    )
    put(
        "trace_overhead_pct",
        100.0 * span_cost * stock_spans / sum(offline.runs["stock"].raw_walls),
        "%",
    )

    # the end-to-end figures a traced run also has, for reference --------
    run.notes.append(
        "traced-run throughput at reference speed (req/s): "
        + ", ".join(
            f"{phase} {requests / wall(phase):.0f}"
            for phase in ("stock", "cliffhanger", "static", "dynamic", "parallel")
        )
        + f", serve capacity {capacity:.0f}"
    )
    return values
