"""A deterministic cost gate for the stock engines: Python calls per
request.

Wall-clock throughput needs a quiet host; the number of Python-level
function calls a request makes does not. This test warms ``default``
(:class:`~repro.cache.engines.FirstComeFirstServeEngine` over LRU) and
``lsm`` (:class:`~repro.cache.log_structured.GlobalLRUEngine`) up on
memcachier apps 5 and 19 (scale 0.012, seed 0) with the first
``WARMUP`` requests, then feeds the next ``MEASURED`` rows to each
engine's ``process_fast`` with a ``sys.setprofile`` hook counting
``"call"`` events. The rows go to the engine directly rather than
through the replay kernel, so NumPy's own Python wrappers (which change
between NumPy versions) stay out of the count; ``process_fast`` itself
is one of the calls.

To re-record after a change that makes a path leaner, run
``_calls_per_request`` for each scheme and write the new figures into
``BUDGET``. The figures may only go down: a change that needs more
calls per request is a regression of the stock baseline every
Cliffhanger overhead ratio divides by.
"""

from __future__ import annotations

import sys

import pytest

from repro.sim import Scenario, build_server, load_workload

WARMUP = 20_000
MEASURED = 2_000

#: scheme -> recorded calls per request. The ``KeyQueue``-backed LRU
#: and the slab path that looked a key's class up twice made 7.544 and
#: 5.3525.
BUDGET = {"default": 2.772, "lsm": 2.1315}


def _calls_per_request(scheme: str) -> float:
    scenario = Scenario(
        workload="memcachier",
        workload_params={"apps": [5, 19]},
        scheme=scheme,
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
    processes = [
        server.engines[window.app_table[app_id]].process_fast
        for app_id in window.app_ids.tolist()
    ]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        for process, row in zip(processes, rows):
            process(*row)
    finally:
        sys.setprofile(None)
    return calls / len(rows)


@pytest.mark.parametrize("scheme", sorted(BUDGET))
def test_calls_per_request_within_budget(scheme):
    assert _calls_per_request(scheme) <= BUDGET[scheme]
