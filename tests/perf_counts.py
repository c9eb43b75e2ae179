"""Python calls per request, by function, for one engine's request path.

A ``sys.setprofile`` hook counts ``"call"`` events while rows go
straight to each engine's ``process_fast``, and keeps only frames whose
code lives under ``src/repro``: NumPy's Python wrappers and stdlib
internals drop out, so the count does not move with their versions.
``process_fast`` itself is one of the calls.

The slice is fixed: memcachier apps 5 and 19 (scale 0.012, seed 0),
warmed with the first ``WARMUP`` requests, then ``MEASURED`` rows
counted. Print a scheme's table with ``PYTHONPATH=src python -m
tests.perf_counts SCHEME [POLICY]``.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from typing import Dict

import repro
from repro.sim import Scenario, build_server, load_workload

WARMUP = 20_000
MEASURED = 2_000

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def count_calls(scheme: str, policy: str = "lru") -> Dict[str, int]:
    """``{"module.py:Qualified.name": calls}`` over the ``MEASURED``
    rows, for the functions under ``src/repro`` that ``scheme``'s
    request path calls."""
    scenario = Scenario(
        workload="memcachier",
        workload_params={"apps": [5, 19]},
        scheme=scheme,
        policy=policy,
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


def per_request(calls: Dict[str, int]) -> float:
    """Total calls per measured request."""
    return sum(calls.values()) / MEASURED


def render(calls: Dict[str, int], n: int = 8) -> str:
    """Calls per request: the total, then the ``n`` largest shares."""
    lines = [f"{per_request(calls):8.4f}  total"]
    for name, count in Counter(calls).most_common(n):
        lines.append(f"{count / MEASURED:8.4f}  {name}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(count_calls(*sys.argv[1:3]), n=20))
