"""Python calls per request, by function, for one engine's request path.

A ``sys.setprofile`` hook (:func:`tests.profile_hook.src_hook`) counts
``"call"`` events while rows go straight to the engines in the replay
kernel's call shape -- one ``process_run`` per app, its rows in trace
order -- and keeps only frames whose code lives under ``src/repro``:
NumPy's Python wrappers and stdlib internals drop out, so the count does
not move with their versions. Each ``process_run`` is one of the calls.

The slice is fixed: memcachier apps 5 and 19 (scale 0.012, seed 0),
warmed with the first ``WARMUP`` requests, then ``MEASURED`` rows
counted. Print a scheme's table with ``PYTHONPATH=src python -m
tests.perf_counts SCHEME [POLICY]``.

Warmed up, that slice never grows a class, so one row,
:data:`STARTUP_ROW`, counts ``default`` over LRU on the same
``MEASURED`` rows from empty engines, where stores grow their classes
(``python -m tests.perf_counts startup default`` prints it).

That slice rarely moves memory either, so two rows, ``credit/1024`` and
``credit/131072``, count the credit path on a slice that does:
:func:`count_credit_calls` replays ``sensitivity``'s workload (memcachier
app 19, scale 0.25, seed 0) under ``cliffhanger`` with a 1 MB hill
shadow and 1 KB or 128 KB credits, warms it with the first
``CREDIT_WARMUP`` requests and counts the next ``CREDIT_MEASURED``
(``python -m tests.perf_counts credit 131072`` prints one).

:data:`TABLES_PATH` holds the tables recorded with the call budgets;
``python -m tests.perf_counts --record`` re-counts every row it holds
and rewrites it, and :func:`diff` names the functions a new count moved
against it.

One row, :data:`CLUSTER_ROW`, counts the other side of the engines:
:func:`count_cluster_calls` counts the Python calls one in-process
cluster replay of :data:`GATHER_SCENARIO` makes around them -- kernel,
window driver, barrier hooks, rerouting, flush, stats -- per request of
the trace
(``python -m tests.perf_counts cluster replay`` prints it).

:func:`count_gathers` counts the replay kernel's NumPy gathers instead:
``ndarray.tolist`` calls per cluster window, beside the window's blocks
of runs, on :data:`GATHER_SCENARIO` unless told otherwise. ``python -m
tests.perf_counts --gathers`` prints them.

Two rows, ``serve/4`` and ``serve/32``, count what a served command
costs from its wire bytes to its reply: :func:`count_serve_calls` feeds
:func:`serve_commands` (the ``serve_write`` mix: 45% GET / 50% SET / 5%
DELETE, values of 64 B-8 KiB, over two Zipf tenants on four shards) one
batch per read into a :class:`~repro.serve.protocol.ProtocolParser`,
and hands each batch's commands to one
:meth:`~repro.serve.service.CacheService.execute`, as a server's drain
does; every call under ``src/repro`` counts, engines included, per
command (``python -m tests.perf_counts serve 4`` prints one).

The memcachier slice is all GETs, so two rows, ``write/cliffhanger`` and
``write/default``, count the write path: :func:`count_write_calls`
compiles the same mix (:func:`write_mix`) into a trace for the serve
rows' two tenants, gives them one engine each and counts ``MEASURED``
rows after ``WARMUP``, as the memcachier rows do (``python -m
tests.perf_counts write cliffhanger`` prints one).
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.cache import kernel
from repro.cluster.routing import build_routing_plan
from repro.serve.protocol import ProtocolParser
from repro.serve.service import CacheService
from repro.sim import (
    GEOMETRY,
    Scenario,
    SyntheticTrace,
    build_cluster,
    build_server,
    load_workload,
    replay_on_cluster,
)
from repro.sim.runner import prepare_cluster
from repro.sim.scenario import SOLVER_PLANS
from repro.workloads.compiled import CompiledTrace
from repro.workloads.trace import Request
from tests.profile_hook import SRC, src_hook

WARMUP = 20_000
MEASURED = 2_000

#: The credit rows' slice: ``sensitivity``'s app, scale and shadow size.
CREDIT_APP = 19
CREDIT_SCALE = 0.25
CREDIT_SHADOW_BYTES = float(1 << 20)
CREDIT_WARMUP = 100_000
CREDIT_MEASURED = 20_000

#: Where engine code lives: :func:`count_cluster_calls` skips these
#: frames and every call made under them.
_ENGINE_SRC = tuple(
    SRC + path
    for path in (
        os.path.join("core", ""),
        os.path.join("cache", "policies", ""),
        os.path.join("cache", "engines.py"),
        os.path.join("cache", "log_structured.py"),
    )
)

#: ``{"scheme/policy": {function: calls over the MEASURED rows}}``.
TABLES_PATH = os.path.join(os.path.dirname(__file__), "sim", "call_tables.json")

#: A small dynamic cluster: the two apps of the call-count slice on four
#: shards, rebalance epochs, and a crash and a restart under
#: ``failover`` -- every kind of barrier that cuts a replay into windows,
#: and a fault timeline sampled inside them.
GATHER_SCENARIO = Scenario(
    workload="memcachier",
    workload_params={"apps": [5, 19]},
    scale=0.012,
    seed=0,
    cluster={"shards": 4, "replication": 2},
    rebalance={"epoch_requests": 2_000, "policy": "load"},
    faults={
        "events": [
            {"kind": "crash", "shard": 1, "at": 8_000},
            {"kind": "restart", "shard": 1, "at": 14_000},
        ],
        "policy": "failover",
    },
)


#: The ``(scheme, policy)``-shaped key of the stock start-up row.
STARTUP_ROW = ("startup", "default")

#: The ``(scheme, policy)``-shaped key of the cluster replay's row.
CLUSTER_ROW = ("cluster", "replay")
#: :data:`GATHER_SCENARIO`'s trace length: the cluster row's requests.
CLUSTER_REQUESTS = 36_000


#: The serve rows' server: the ``zipf`` workload's two tenants
#: (``zipf01``, ``zipf02``) on four shards of ``default`` engines.
SERVE_SCENARIO = Scenario(
    workload="zipf", scale=0.05, seed=0, cluster={"shards": 4}
)
#: Keys per tenant in :func:`serve_commands`.
SERVE_KEYS = 2_000
#: Commands served before the counted ones, and the counted ones.
SERVE_WARMUP = 4_096
SERVE_MEASURED = 1_024


def write_mix(
    count: int, seed: int = 0, keys: int = SERVE_KEYS
) -> List[Tuple[str, str, int]]:
    """``count`` requests of the ``serve_write`` mix as ``(op, key, value
    bytes)``: Zipf keys over two tenants of ``keys`` keys each, 45%
    ``get`` / 50% ``set`` / 5% ``delete``, each key's value size drawn
    once, log-uniform over 64 B-8 KiB."""
    rng = random.Random(seed)
    names = [
        f"{tenant}:b:{rank}" for tenant in ("zipf01", "zipf02") for rank in range(keys)
    ]
    sizes = [int(math.exp(rng.uniform(math.log(64), math.log(8192)))) for _ in names]
    weights = [1.0 / (rank + 1) for rank in range(keys)] * 2
    mix = []
    for index in rng.choices(range(len(names)), weights, k=count):
        draw = rng.random()
        op = "get" if draw < 0.45 else "set" if draw < 0.95 else "delete"
        mix.append((op, names[index], sizes[index]))
    return mix


def serve_commands(count: int, seed: int = 0) -> List[bytes]:
    """``count`` commands of :func:`write_mix` as wire bytes."""
    commands = []
    for op, key, size in write_mix(count, seed):
        if op == "set":
            commands.append(
                f"set {key} 0 0 {size}\r\n".encode() + b"v" * size + b"\r\n"
            )
        else:
            commands.append(f"{op} {key}\r\n".encode())
    return commands


def count_serve_calls(batch: int) -> Dict[str, int]:
    """``{"module.py:Qualified.name": calls}`` over the
    ``SERVE_MEASURED`` commands after ``SERVE_WARMUP``, served ``batch``
    at a time: one ``feed`` of the batch's bytes, ``next_event`` until it
    is drained, one ``CacheService.execute`` of its commands."""
    scenario = SERVE_SCENARIO
    trace = load_workload(scenario.workload, scenario.scale, scenario.seed)
    service = CacheService(build_cluster(scenario, trace))
    parser = ProtocolParser()
    stream = serve_commands(SERVE_WARMUP + SERVE_MEASURED)

    def serve(low: int, high: int) -> None:
        for start in range(low, high, batch):
            parser.feed(b"".join(stream[start : min(start + batch, high)]))
            commands = []
            while (event := parser.next_event()) is not None:
                commands.append(event.command)
            service.execute(commands)

    serve(0, SERVE_WARMUP)
    counts: Counter = Counter()

    def count(event, code):
        if event == "call":
            counts[code] += 1

    sys.setprofile(src_hook(count))
    try:
        serve(SERVE_WARMUP, SERVE_WARMUP + SERVE_MEASURED)
    finally:
        sys.setprofile(None)
    return _named(counts)


def count_calls(
    scheme: str, policy: str = "lru", warm: bool = True
) -> Dict[str, int]:
    """``{"module.py:Qualified.name": calls}`` over the ``MEASURED``
    rows, for the functions under ``src/repro`` that ``scheme``'s
    request path calls; with ``warm`` false, empty engines serve them."""
    scenario = Scenario(
        workload="memcachier",
        workload_params={"apps": [5, 19]},
        scheme=scheme,
        policy=policy,
        plans=SOLVER_PLANS if scheme == "planned" else None,
        scale=0.012,
        seed=0,
    )
    return _count_engine_calls(scenario, WARMUP, MEASURED, warm)


def count_credit_calls(credit_bytes: int) -> Dict[str, int]:
    """:func:`count_calls` for ``cliffhanger`` on the credit slice: the
    ``CREDIT_MEASURED`` rows after ``CREDIT_WARMUP`` of ``sensitivity``'s
    workload, at ``credit_bytes`` per shadow hit."""
    scenario = Scenario(
        workload="memcachier",
        workload_params={"apps": [CREDIT_APP]},
        scheme="cliffhanger",
        engine_overrides={
            "credit_bytes": float(credit_bytes),
            "hill_shadow_bytes": CREDIT_SHADOW_BYTES,
        },
        scale=CREDIT_SCALE,
        seed=0,
    )
    return _count_engine_calls(scenario, CREDIT_WARMUP, CREDIT_MEASURED)


def count_write_calls(scheme: str) -> Dict[str, int]:
    """:func:`count_calls` for ``scheme`` on the write slice: the
    ``MEASURED`` rows after ``WARMUP`` of :func:`write_mix`, served by
    one engine per tenant of :data:`SERVE_SCENARIO`."""
    scenario = Scenario(
        workload=SERVE_SCENARIO.workload,
        scheme=scheme,
        scale=SERVE_SCENARIO.scale,
        seed=SERVE_SCENARIO.seed,
    )
    tenants = load_workload(scenario.workload, scenario.scale, scenario.seed)
    compiled = CompiledTrace.compile(
        (
            Request(
                time=float(index),
                app=key.partition(":")[0],
                key=key,
                op=op,
                value_size=size,
            )
            for index, (op, key, size) in enumerate(write_mix(WARMUP + MEASURED))
        ),
        GEOMETRY,
    )
    trace = SyntheticTrace(
        scale=scenario.scale,
        seed=scenario.seed,
        reservations=dict(tenants.reservations),
        requests_per_app={},
        compiled=compiled,
    )
    return _count_engine_calls(scenario, WARMUP, MEASURED, trace=trace)


def _count_engine_calls(
    scenario: Scenario,
    warmup: int,
    measured: int,
    warm: bool = True,
    trace: Optional[SyntheticTrace] = None,
) -> Dict[str, int]:
    """Replay the first ``warmup`` requests of ``trace`` (``scenario``'s
    workload unless given; none unless ``warm``), then count the calls
    under ``src/repro`` the next ``measured`` make through the engines,
    one ``process_run`` per app as the replay kernel calls them."""
    if trace is None:
        trace = load_workload(
            scenario.workload, scenario.scale, scenario.seed,
            **scenario.workload_params,
        )
    server = build_server(scenario, trace)
    if warm:
        server.replay_compiled(trace.compiled.slice(0, warmup))
    window = trace.compiled.slice(warmup, warmup + measured)
    rows = list(zip(*(column.tolist() for column in window.replay_columns())))
    assert len(rows) == measured
    # One run per app, its rows in trace order: the kernel's call shape.
    runs: Dict[int, List[tuple]] = {}
    for app_id, row in zip(window.app_ids.tolist(), rows):
        runs.setdefault(app_id, []).append(row)
    processes = [
        (server.engines[window.app_table[app_id]].process_run, runs[app_id])
        for app_id in sorted(runs)
    ]
    counts: Counter = Counter()

    def count(event, code):
        if event == "call":
            counts[code] += 1

    sys.setprofile(src_hook(count))
    try:
        for process, run in processes:
            process(run)
    finally:
        sys.setprofile(None)
    return _named(counts)


def _named(counts: Counter) -> Dict[str, int]:
    """Calls by ``"module.py:Qualified.name"``; code objects that share a
    name (two comprehensions in one function) add up."""
    named: Counter = Counter()
    for code, calls in counts.items():
        named[f"{code.co_filename[len(SRC):]}:{code.co_qualname}"] += calls
    return dict(named)


def count_cluster_calls() -> Dict[str, int]:
    """``{"module.py:Qualified.name": calls}`` over one in-process
    cluster replay of :data:`GATHER_SCENARIO`'s whole trace
    (:data:`CLUSTER_REQUESTS` requests) on a routing plan built
    beforehand: every call under ``src/repro`` except engine code
    (:data:`_ENGINE_SRC`) and what it calls."""
    scenario = GATHER_SCENARIO
    trace = load_workload(
        scenario.workload, scenario.scale, scenario.seed,
        **scenario.workload_params,
    )
    cluster = prepare_cluster(scenario, trace)
    compiled = trace.compiled
    assert len(compiled) == CLUSTER_REQUESTS
    plan = build_routing_plan(compiled, cluster.ring, cluster.replication)
    counts: Counter = Counter()
    depth = 0

    def count(event, code):
        nonlocal depth
        engine = code.co_filename.startswith(_ENGINE_SRC)
        if event == "call":
            if engine:
                depth += 1
            elif not depth:
                counts[code] += 1
        elif engine:
            depth -= 1

    sys.setprofile(src_hook(count))
    try:
        cluster.replay_compiled(compiled, plan)
    finally:
        sys.setprofile(None)
    return _named(counts)


def is_engine_row(row: Tuple[str, str]) -> bool:
    """Whether a ``BUDGET`` row counts one engine scheme's own calls on
    the fixed slice (every row but the cluster replay's, the start-up
    row and the serve, credit and write rows)."""
    return row not in (CLUSTER_ROW, STARTUP_ROW) and row[0] not in (
        "serve", "credit", "write"
    )


def count_row(row: Tuple[str, str]) -> Dict[str, int]:
    """The per-function calls of one ``BUDGET`` row."""
    if row == CLUSTER_ROW:
        return count_cluster_calls()
    if row == STARTUP_ROW:
        return count_calls("default", warm=False)
    if row[0] == "serve":
        return count_serve_calls(int(row[1]))
    if row[0] == "credit":
        return count_credit_calls(int(row[1]))
    if row[0] == "write":
        return count_write_calls(row[1])
    return count_calls(*row)


def requests_of(row: Tuple[str, str]) -> int:
    """How many requests (commands, on a serve row) one ``BUDGET`` row's
    calls served."""
    if row == CLUSTER_ROW:
        return CLUSTER_REQUESTS
    if row[0] == "credit":
        return CREDIT_MEASURED
    return SERVE_MEASURED if row[0] == "serve" else MEASURED


def count_gathers(
    scenario: Scenario = GATHER_SCENARIO,
) -> List[Tuple[int, int]]:
    """``(ndarray.tolist calls, blocks)`` per window -- per call of
    :func:`repro.cache.kernel.replay_runs` -- over one in-process
    cluster replay of ``scenario``. A block is one ``bisect_right``
    call: the kernel makes one to size each block of runs it gathers."""
    trace = load_workload(
        scenario.workload, scenario.scale, scenario.seed,
        **scenario.workload_params,
    )
    kernel_code = kernel.replay_runs.__code__
    windows: List[List[int]] = []
    depth = 0

    def count(frame, event, arg):
        nonlocal depth
        if event == "call" and frame.f_code is kernel_code:
            depth += 1
            windows.append([0, 0])
        elif event == "return" and frame.f_code is kernel_code:
            depth -= 1
        elif event == "c_call" and depth:
            name = getattr(arg, "__qualname__", None)
            if name == "ndarray.tolist":
                windows[-1][0] += 1
            elif name == "bisect_right":
                windows[-1][1] += 1

    sys.setprofile(count)
    try:
        replay_on_cluster(scenario, trace)
    finally:
        sys.setprofile(None)
    return [(calls, blocks) for calls, blocks in windows]


def per_request(calls: Dict[str, int], requests: int = MEASURED) -> float:
    """Total calls per request."""
    return sum(calls.values()) / requests


def render(calls: Dict[str, int], n: int = 8, requests: int = MEASURED) -> str:
    """Calls per request: the total, then the ``n`` largest shares."""
    lines = [f"{per_request(calls, requests):8.4f}  total"]
    for name, count in Counter(calls).most_common(n):
        lines.append(f"{count / requests:8.4f}  {name}")
    return "\n".join(lines)


def load_tables() -> Dict[Tuple[str, str], Dict[str, int]]:
    """The recorded per-function tables, keyed ``(scheme, policy)``."""
    with open(TABLES_PATH) as handle:
        tables = json.load(handle)
    return {tuple(row.split("/")): calls for row, calls in tables.items()}


def record() -> None:
    """Re-count every row of :data:`TABLES_PATH` and rewrite it."""
    tables = {"/".join(row): count_row(row) for row in load_tables()}
    with open(TABLES_PATH, "w") as handle:
        json.dump(tables, handle, indent=1, sort_keys=True)
        handle.write("\n")


def diff(
    calls: Dict[str, int], recorded: Dict[str, int], requests: int = MEASURED
) -> str:
    """Calls per request: both totals, then every function whose count
    moved against ``recorded``, largest move first."""
    moved = Counter(calls)
    moved.subtract(recorded)
    lines = [
        f"{per_request(recorded, requests):8.4f} -> "
        f"{per_request(calls, requests):.4f}  total"
    ]
    for name, delta in sorted(moved.items(), key=lambda item: -abs(item[1])):
        if delta:
            lines.append(
                f"{delta / requests:+8.4f}  {name} "
                f"({recorded.get(name, 0) / requests:.4f} -> "
                f"{calls.get(name, 0) / requests:.4f})"
            )
    return "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    elif sys.argv[1:] == ["--gathers"]:
        windows = count_gathers()
        calls = [calls for calls, _ in windows]
        print(
            f"{len(windows)} windows, "
            f"{sum(blocks for _, blocks in windows)} blocks, "
            f"{sum(calls)} tolist calls: max {max(calls)}, "
            f"mean {sum(calls) / len(calls):.2f} per window"
        )
    else:
        row = tuple(sys.argv[1:3]) if len(sys.argv) > 2 else (sys.argv[1], "lru")
        print(render(count_row(row), n=20, requests=requests_of(row)))
