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

#: (scheme, policy) -> recorded calls per request. The ``KeyQueue``-backed LRU
#: and the slab path that looked a key's class up twice made 7.544 and
#: 5.3525 (``default``, ``lsm``). A Cliffhanger GET that searched
#: partitions with ``discard``, called ``_observe_hit`` and re-searched
#: on its fill made 5.3825 (``cliffhanger``), 5.6165 (``cliff-only``)
#: and 5.4105 (``hill-only``); ``hill`` made 5.017 while its fill
#: repeated the shadow test its ``access`` had made.
#: A slab-engine miss that stored through ``_insert``, the
#: ``capacity`` and ``used`` properties, a victim list and
#: ``_forget_evicted`` made 2.772 (``default``), 10.932 and 12.094
#: (``default`` over Facebook and ARC) and 2.6255 (``planned``); ``hill``
#: read ``capacity`` through a property at 4.841 (LRU) and 12.5655
#: (Facebook). While Facebook's segments, ARC's four lists and the
#: ``hill`` shadow were ``KeyQueue`` objects, ``default`` made 9.907
#: over Facebook and 10.794 over ARC, and ``hill`` 4.7905 over LRU and
#: 12.5205 over Facebook. The cluster replay made 11,923 calls around
#: its engines (0.3312 per request) while every fault timeline sample
#: split a window, and flushed each of its 146 windows' runs separately.
#: While every request was one ``process_fast`` call (and the kernel ran
#: a list comprehension per run around it), the rows made one call per
#: request more: 2.0 (``default``, ``planned``), 2.773 / 2.371
#: (``default`` over Facebook / ARC), 2.1315 (``lsm``), 4.267 / 4.7385
#: (``hill`` over LRU / Facebook), 3.001 (``cliffhanger``), 3.0655
#: (``cliff-only``) and 2.827 (``hill-only``); a combined-engine miss
#: also called ``_fill`` and ``_decay_pointers``, and the cluster
#: replay made 3,976 calls. A served command made 25.2 calls in
#: 4-command batches and 18.8 in 32-command ones (25,810 and 19,276
#: over the serve rows' 1,024 commands) while the parser framed a line
#: in ``_read_line``, checked it in ``_parse_get`` / ``_parse_set`` /
#: ``_valid_key`` / ``_number`` and called ``next_event`` again for a
#: SET's data block, the service called ``app_of_key`` and
#: ``_fill_size`` per row and ``SlabGeometry.row`` per SET, and the
#: cluster classified each row through ``row`` + ``class_for_size`` and
#: routed it through one ``Router.route`` + ``successors`` call. While
#: ``Cluster.process_batch`` took scalars, NumPy columns and op names
#: (``_batch_column`` x4, ``_batch_ops``, ``_batch_apps`` and their
#: comprehensions, ``_batch_rows`` per batch), a served command made
#: 12.79 calls in 4-command batches and 6.84 in 32-command ones (13,094
#: and 7,008). While every Cliffhanger resize and pointer event fanned
#: out to both partitions (``_cliff_gate``, ``_effective_ratio``,
#: ``_partition_targets``, two ``set_physical`` and two ``set_hill``),
#: the engine's growth test read ``used_bytes``, the climber called a
#: capacity closure per donor and a split queue hashed every request,
#: the credit rows made 3.5298 (1 KB) and 8.6218 (128 KB), and
#: ``cliffhanger`` / ``cliff-only`` / ``hill-only`` 1.494 / 1.498 /
#: 1.468; ``hill`` made 3.092 / 3.5725 (LRU / Facebook) while it read
#: ``used_bytes`` too, and the serve rows 10.54 / 6.56 (10,790 and
#: 6,720) while ``HashRing.position_for`` mixed its seed per key.
#: While a slab engine's GET hit called ``LRUPolicy.access`` (which
#: tested residency again) and each start-up growth ran ``used``,
#: ``_resize_queue``, ``resize`` and ``_set_capacity``, ``default`` /
#: ``planned`` made 1.001 / 1.001, the start-up row 3.136 and the serve
#: rows 10.3701 / 6.3955 (10,619 and 6,549); while a hit from the routed
#: partition's own tail probe ran the whole ``_cascade``,
#: ``cliffhanger`` / ``cliff-only`` / ``hill-only`` made 1.2555 / 1.297
#: / 1.255 and the credit rows 1.7698 / 2.9371 (35,397 and 58,741).
#: While ``lsm`` kept no key map, so that a GET called ``LRUPolicy.access``
#: and a store ``insert``, it made 1.1325. While a Cliffhanger SET called
#: ``_decay_pointers``, purged through ``_Partition.discard`` and stored
#: through ``push`` and the whole ``_cascade``, and a DELETE purged both
#: partitions, ``write/cliffhanger`` made 3.697 (7,394).
BUDGET = {
    ("default", "lru"): 0.194,
    ("default", "facebook"): 1.774,
    ("default", "arc"): 1.372,
    ("lsm", "lru"): 0.1325,
    ("planned", "lru"): 0.1785,
    ("hill", "lru"): 3.03,
    ("hill", "facebook"): 3.517,
    ("cliffhanger", "lru"): 1.247,
    ("cliff-only", "lru"): 1.2485,
    ("hill-only", "lru"): 1.2365,
    CLUSTER_ROW: 3_838 / CLUSTER_REQUESTS,
    STARTUP_ROW: 1_737 / MEASURED,
    ("serve", "4"): 10_365 / SERVE_MEASURED,
    ("serve", "32"): 6_295 / SERVE_MEASURED,
    ("credit", "1024"): 33_989 / CREDIT_MEASURED,
    ("credit", "131072"): 58_735 / CREDIT_MEASURED,
    ("write", "cliffhanger"): 1.5435,
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


#: Most ``ndarray.tolist`` calls the whole gather-count replay may make.
#: While every fault timeline sample cut a window it made 1,022 (146
#: windows of 7); gathering per run instead of per block made five per
#: run, 40 in the busiest window.
GATHERS_PER_REPLAY = 306


def test_kernel_gathers_per_window_within_budget():
    windows = count_gathers()
    # Per window: the run table's two lists, then five column gathers
    # per block of runs -- never one per run.
    assert all(calls == 2 + 5 * blocks for calls, blocks in windows), windows
    total = sum(calls for calls, _ in windows)
    assert total <= GATHERS_PER_REPLAY, (
        f"{total} tolist calls over {len(windows)} windows: {windows}"
    )
