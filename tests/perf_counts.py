"""Python calls per request, by function, for one engine's request path.

A ``sys.setprofile`` hook counts ``"call"`` events while rows go
straight to each engine's ``process_fast``, and keeps only frames whose
code lives under ``src/repro``: NumPy's Python wrappers and stdlib
internals drop out, so the count does not move with their versions.
``process_fast`` itself is one of the calls.

The slice is fixed: memcachier apps 5 and 19 (scale 0.012, seed 0),
warmed with the first ``WARMUP`` requests, then ``MEASURED`` rows
counted. Print a scheme's table with ``PYTHONPATH=src python -m
tests.perf_counts SCHEME [POLICY]``. :data:`TABLES_PATH` holds the
tables recorded with the call budgets; ``python -m tests.perf_counts
--record`` re-counts every row it holds and rewrites it, and
:func:`diff` names the functions a new count moved against it.

:func:`count_gathers` counts the replay kernel's NumPy gathers instead:
``ndarray.tolist`` calls per cluster window, on :data:`GATHER_SCENARIO`
unless told otherwise. ``python -m tests.perf_counts --gathers`` prints
them.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from typing import Dict, List, Tuple

import repro
from repro.cache import kernel
from repro.sim import Scenario, build_server, load_workload, replay_on_cluster
from repro.sim.scenario import SOLVER_PLANS

WARMUP = 20_000
MEASURED = 2_000

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: ``{"scheme/policy": {function: calls over the MEASURED rows}}``.
TABLES_PATH = os.path.join(os.path.dirname(__file__), "sim", "call_tables.json")

#: A small dynamic cluster: the two apps of the call-count slice on four
#: shards, rebalance epochs, and a crash and a restart under
#: ``failover`` -- every kind of barrier that cuts a replay into windows.
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


def count_calls(scheme: str, policy: str = "lru") -> Dict[str, int]:
    """``{"module.py:Qualified.name": calls}`` over the ``MEASURED``
    rows, for the functions under ``src/repro`` that ``scheme``'s
    request path calls."""
    scenario = Scenario(
        workload="memcachier",
        workload_params={"apps": [5, 19]},
        scheme=scheme,
        policy=policy,
        plans=SOLVER_PLANS if scheme == "planned" else None,
        scale=0.012,
        seed=0,
    )
    trace = load_workload(
        scenario.workload, scenario.scale, scenario.seed,
        **scenario.workload_params,
    )
    server = build_server(scenario, trace)
    server.replay_compiled(trace.compiled.slice(0, WARMUP))
    window = trace.compiled.slice(WARMUP, WARMUP + MEASURED)
    rows = list(zip(*(column.tolist() for column in window.replay_columns())))
    assert len(rows) == MEASURED
    processes = [
        server.engines[window.app_table[app_id]].process_fast
        for app_id in window.app_ids.tolist()
    ]
    counts: Counter = Counter()

    def count(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_SRC):
                counts[code] += 1

    sys.setprofile(count)
    try:
        for process, row in zip(processes, rows):
            process(*row)
    finally:
        sys.setprofile(None)
    return {
        f"{code.co_filename[len(_SRC):]}:{code.co_qualname}": calls
        for code, calls in counts.items()
    }


def count_gathers(scenario: Scenario = GATHER_SCENARIO) -> List[int]:
    """``ndarray.tolist`` calls per window -- per call of
    :func:`repro.cache.kernel.replay_runs` -- over one in-process
    cluster replay of ``scenario``."""
    trace = load_workload(
        scenario.workload, scenario.scale, scenario.seed,
        **scenario.workload_params,
    )
    kernel_code = kernel.replay_runs.__code__
    windows: List[int] = []
    depth = 0

    def count(frame, event, arg):
        nonlocal depth
        if event == "call" and frame.f_code is kernel_code:
            depth += 1
            windows.append(0)
        elif event == "return" and frame.f_code is kernel_code:
            depth -= 1
        elif (
            event == "c_call"
            and depth
            and getattr(arg, "__qualname__", None) == "ndarray.tolist"
        ):
            windows[-1] += 1

    sys.setprofile(count)
    try:
        replay_on_cluster(scenario, trace)
    finally:
        sys.setprofile(None)
    return windows


def per_request(calls: Dict[str, int]) -> float:
    """Total calls per measured request."""
    return sum(calls.values()) / MEASURED


def render(calls: Dict[str, int], n: int = 8) -> str:
    """Calls per request: the total, then the ``n`` largest shares."""
    lines = [f"{per_request(calls):8.4f}  total"]
    for name, count in Counter(calls).most_common(n):
        lines.append(f"{count / MEASURED:8.4f}  {name}")
    return "\n".join(lines)


def load_tables() -> Dict[Tuple[str, str], Dict[str, int]]:
    """The recorded per-function tables, keyed ``(scheme, policy)``."""
    with open(TABLES_PATH) as handle:
        tables = json.load(handle)
    return {tuple(row.split("/")): calls for row, calls in tables.items()}


def record() -> None:
    """Re-count every row of :data:`TABLES_PATH` and rewrite it."""
    tables = {
        f"{scheme}/{policy}": count_calls(scheme, policy)
        for scheme, policy in load_tables()
    }
    with open(TABLES_PATH, "w") as handle:
        json.dump(tables, handle, indent=1, sort_keys=True)
        handle.write("\n")


def diff(calls: Dict[str, int], recorded: Dict[str, int]) -> str:
    """Calls per request: both totals, then every function whose count
    moved against ``recorded``, largest move first."""
    moved = Counter(calls)
    moved.subtract(recorded)
    lines = [f"{per_request(recorded):8.4f} -> {per_request(calls):.4f}  total"]
    for name, delta in sorted(moved.items(), key=lambda item: -abs(item[1])):
        if delta:
            lines.append(
                f"{delta / MEASURED:+8.4f}  {name} "
                f"({recorded.get(name, 0) / MEASURED:.4f} -> "
                f"{calls.get(name, 0) / MEASURED:.4f})"
            )
    return "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    elif sys.argv[1:] == ["--gathers"]:
        gathers = count_gathers()
        print(
            f"{len(gathers)} windows, {sum(gathers)} tolist calls: "
            f"max {max(gathers)}, mean {sum(gathers) / len(gathers):.2f} "
            "per window"
        )
    else:
        print(render(count_calls(*sys.argv[1:3]), n=20))
