"""A deterministic cost gate for the engines: Python calls per request.

Wall-clock throughput needs a quiet host; the number of Python-level
function calls a request makes does not. :mod:`tests.perf_counts` warms
each scheme up on memcachier apps 5 and 19 (scale 0.012, seed 0) and
counts the calls under ``src/repro`` that the next rows make through
the engines, one ``process_run`` per app as the replay kernel calls
them. The gate covers the stock engines
(``default`` under each eviction policy, ``lsm``, ``planned`` on solver
plans), the hill climber (``hill`` over LRU and Facebook) and the three
Cliffhanger queue schemes. One more row counts the other side: the
calls an in-process dynamic cluster replay makes around its engines
(kernel, window driver, barrier hooks, rerouting, flush, stats), per
request of its trace. One more counts ``default`` over LRU on the
slice's rows from empty engines, so that every store grows its class:
the stock start-up path the warmed rows never take. Two more count a served command, wire bytes to
reply: ``ProtocolParser`` plus one ``CacheService.execute`` per batch of
4 or of 32 commands of the ``serve_write`` mix, engines included. Two
more count ``cliffhanger`` where memory moves: ``sensitivity``'s
workload at 1 KB and at 128 KB credits, where start-up growth, credit
transfers and repartitions run on most requests. Two more count the
write path, which the all-GET memcachier slice never takes:
``cliffhanger`` and ``default`` engines serving the ``serve_write`` mix
(45% GET / 50% SET / 5% DELETE) as trace rows.

Each row's per-function table is checked in beside this file
(``call_tables.json``), and a row over its budget prints its diff
against that table, so the failure names the function that moved. To
re-record after a change that makes a path leaner, rewrite the tables
(``python -m tests.perf_counts --record``; ``python -m tests.perf_counts
SCHEME [POLICY]`` prints one) and write the new totals into ``BUDGET``.
The figures may only go down: a stock engine that needs more calls is a
regression of the baseline every Cliffhanger overhead ratio divides by,
and a Cliffhanger scheme that needs more is a regression of that ratio.

The replay kernel has a gate of its own: NumPy gathers per cluster
window and per replay (``python -m tests.perf_counts --gathers``).
"""

from __future__ import annotations

import pytest

from tests.perf_counts import (
    CLUSTER_REQUESTS,
    CREDIT_MEASURED,
    CLUSTER_ROW,
    MEASURED,
    SERVE_MEASURED,
    STARTUP_ROW,
    count_gathers,
    count_row,
    diff,
    load_tables,
    per_request,
    requests_of,
)

#: (scheme, policy) -> recorded calls per request, each the total of
#: its table in ``call_tables.json``. A figure only goes down; the
#: superseded ones are in CHANGES.md.
BUDGET = {
    ("default", "lru"): 0.194,
    ("default", "facebook"): 1.774,
    ("default", "arc"): 1.372,
    ("lsm", "lru"): 0.1325,
    ("planned", "lru"): 0.1785,
    ("hill", "lru"): 2.945,
    ("hill", "facebook"): 3.43,
    ("cliffhanger", "lru"): 1.247,
    ("cliff-only", "lru"): 1.2485,
    ("hill-only", "lru"): 1.2365,
    CLUSTER_ROW: 3_838 / CLUSTER_REQUESTS,
    STARTUP_ROW: 1_737 / MEASURED,
    ("serve", "4"): 10_365 / SERVE_MEASURED,
    ("serve", "32"): 6_295 / SERVE_MEASURED,
    ("credit", "1024"): 33_989 / CREDIT_MEASURED,
    ("credit", "131072"): 58_735 / CREDIT_MEASURED,
    ("write", "cliffhanger"): 1.5305,
    ("write", "default"): 0.7675,
}


def _row_id(row):
    """The bare scheme name for LRU rows, ``scheme-policy`` otherwise."""
    scheme, policy = row
    return scheme if policy == "lru" else f"{scheme}-{policy}"


@pytest.mark.parametrize("row", sorted(BUDGET), ids=_row_id)
def test_calls_per_request_within_budget(row):
    calls = count_row(row)
    requests = requests_of(row)
    assert per_request(calls, requests) <= BUDGET[row], (
        f"{_row_id(row)} over its budget of {BUDGET[row]}; moved against "
        "the recorded table:\n" + diff(calls, load_tables()[row], requests)
    )


def test_every_budget_is_its_recorded_table():
    tables = load_tables()
    assert sorted(tables) == sorted(BUDGET)
    for row, calls in tables.items():
        assert per_request(calls, requests_of(row)) == BUDGET[row], _row_id(row)


#: Most ``ndarray.tolist`` calls the whole gather-count replay may make:
#: no fault timeline sample cuts a window, and a window gathers per
#: block of runs, never per run.
GATHERS_PER_REPLAY = 252


def test_kernel_gathers_per_window_within_budget():
    windows = count_gathers()
    # Per window: the run table's two lists, then four column gathers
    # per block of runs -- never one per run.
    assert all(calls == 2 + 4 * blocks for calls, blocks in windows), windows
    total = sum(calls for calls, _ in windows)
    assert total <= GATHERS_PER_REPLAY, (
        f"{total} tolist calls over {len(windows)} windows: {windows}"
    )
