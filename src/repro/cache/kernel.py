"""The one replay kernel: a window of requests as per-(shard, app) runs.

Cliffhanger "runs on each memory cache server and does not require any
coordination between different servers" (paper section 4.3), so between
two barriers a replay is nothing more than independent runs: one per
(shard, app) pair, each touching one engine and one stats slice, and
each one call of that engine's
:meth:`~repro.cache.engines.Engine.process_run`, which owns the loop
over the run's rows.
:func:`replay_runs` is the only place that fact is written down. A single
server (:meth:`repro.cache.server.CacheServer.replay_compiled`, the
one-shard case), the offline cluster replay
(:meth:`repro.cluster.Cluster.replay_compiled`, through the cluster's
window driver ``Cluster._drive``) and the parallel replay's workers
(:mod:`repro.cluster.parallel`, one call over the whole trace each) all
call it; they differ only in which columns they pass (a worker's came
with its start-up arguments) and where the returned tallies go
(:func:`flush_runs` in-process, one reply from a worker).

Only what changes state is a barrier: a rebalance epoch, a fault event,
the run's end. A fault timeline's samples only read counters, so they
cut no window: the caller passes their row offsets as ``cuts``, and the
kernel returns, beside the run tallies, each cut's GET hits and GETs
since the cut before it (:func:`cut_tallies`). The caller adds those to
the totals at the window's start and has the counters as they stood at
each sample, mid-window.

The columns reach the loop in blocks: consecutive runs of a window are
grouped into blocks of at most :data:`GATHER_ROWS` rows (a longer run is
a block of its own), each block gathers its four columns once, and
every run takes its rows from the block's one row iterator. A dynamic
cluster's window holds hundreds of runs of a few rows each, so gathering
per block instead of per run is what keeps its windows cheap, while the
Python lists alive at any time stay bounded by ``max(GATHER_ROWS,
longest run)`` rows.

The live :meth:`repro.cluster.Cluster.process_batch` serves a server's
drain, a few to a few hundred rows, where the sort and gathers below
cost more than they save. It takes the wire service's four plain lists
(keys, op codes, value sizes, app names; a key's size is its length),
classifies and checks every row in one loop before serving any, buckets
each driver window's rows into the same runs in plain Python, calls
``process_run`` per run in this module's run order, flushes through
:func:`flush_runs` and returns a plain list of outcome codes. One walk
serves requests one at a time instead, through the engines' one-row
``process_fast``:
:meth:`repro.core.crossapp.CrossAppHillClimber.replay_compiled` moves
memory between apps on a shadow hit, before the next request, so no two
apps' runs are independent. (Moving that climber onto window barriers
would let it use this kernel too.)
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Collection,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.cache.stats import OP_GET, OUTCOME_DEAD, OUTCOME_HIT

if TYPE_CHECKING:  # circular at runtime: server.py replays through us
    from repro.cache.server import CacheServer

    #: Shard index -> server: a cluster's list, a worker's owned subset,
    #: or the 1-tuple of a server replaying on its own.
    Servers = Union[Sequence[CacheServer], Mapping[int, CacheServer]]

#: Most rows one gather pulls into Python lists, unless a single run is
#: longer (it is then gathered whole, as a block of its own). Small
#: enough that a block's lists stay cache-resident while its runs read
#: them, however long the window between two epochs or events; large
#: enough that one block holds dozens of a dynamic cluster's short runs,
#: so a window makes a handful of gathers, not four per run.
GATHER_ROWS = 1024

#: One run's outcome tally: ``(shard, app_id, {(code << 2) | op: count})``.
Run = Tuple[int, int, Dict[int, int]]
#: ``(GET hits, GETs)`` of the rows between two cuts of a window.
CutTally = Tuple[int, int]
#: ``(keys, op_codes, slab_classes, item_bytes)`` -- keys as an object
#: array, the rest integer arrays, one row per request: the compiled
#: trace columns an engine reads (``CompiledTrace.replay_columns``). A
#: row's chunk is its engine's ladder's chunk for the class.
ReplayColumns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: Run ids below this sort as ``uint16``, where NumPy's stable argsort is
#: a radix sort; a window with more (shard, app) pairs sorts as
#: ``int64``. Either way the order is the same.
RADIX_RUNS = 1 << 16


def replay_runs(
    servers: Servers,
    app_table: Sequence[str],
    columns: ReplayColumns,
    shard_column: np.ndarray,
    app_column: np.ndarray,
    start: int,
    stop: int,
    dead: Collection[int] = (),
    owned: Optional[np.ndarray] = None,
    cuts: Sequence[int] = (),
) -> Tuple[List[Run], List[CutTally]]:
    """Replay requests ``[start, stop)``: one tally per run, and one
    :data:`CutTally` per cut.

    Within one window shards are independent servers and, on each shard,
    per-app engines and per-app stats share no state -- so the
    interleaved request order only matters *within* one (shard, app)
    run, which a stable sort on ``shard * num_apps + app`` preserves
    (in the narrowest dtype that holds the window's run ids, see
    :data:`RADIX_RUNS`). Each run is then one ``process_run`` call on
    the run's rows, from flat column gathers (``tolist`` hands the
    engine plain Python objects; keys stay the interned strings); the
    engine returns the packed ``(code << 2) | op`` outcomes, and a
    ``Counter`` of them (tallied in C, keyed in first-seen order) stands
    in for a per-request stats walk. Counters are integer adds, so
    flushing a tally later is bit-identical to recording each request
    as it happens. Runs come back in ascending composite order.

    The gathers are per block of runs (see the module docstring); each
    run draws exactly its own rows from its block's ``zip`` with
    ``islice``.

    ``dead`` shards (the fault layer's ``miss-through`` policy) never
    reach an engine: their runs tally ``OUTCOME_DEAD`` per op -- GETs
    count as misses, SETs as sets. ``owned`` is a per-shard boolean lookup
    restricting the window to a parallel worker's shards; a stable sort
    of a subsequence keeps each run's request order, so a worker's runs
    equal the serial loop's.

    ``cuts`` are ascending row offsets inside the window where a caller
    wants to read counters without stopping the replay (a fault
    timeline's samples). For each cut the second list holds the GET
    hits and GETs of the window's rows from the previous cut (or
    ``start``) up to it; a dead shard's GETs count as misses. Only a
    window with cuts keeps its codes to lay them against the rows
    (:func:`cut_tallies`); the second list is empty without cuts.
    """
    window_shards = shard_column[start:stop]
    window_apps = app_column[start:stop]
    members = None
    if owned is not None:
        members = np.flatnonzero(owned[window_shards])
        window_shards = window_shards[members]
        window_apps = window_apps[members]
    runs: List[Run] = []
    if len(window_shards) == 0:
        return runs, [(0, 0)] * len(cuts)
    num_apps = len(app_table)
    composite = window_shards.astype(np.int64) * num_apps + window_apps
    if composite.max() < RADIX_RUNS:
        composite = composite.astype(np.uint16)
    order = np.argsort(composite, kind="stable")
    sorted_runs = composite[order]
    positions = order if members is None else members[order]
    if start:
        positions = positions + start
    run_bounds = np.flatnonzero(sorted_runs[1:] != sorted_runs[:-1]) + 1
    keys, op_codes, slab_classes, item_bytes = columns
    run_ids = sorted_runs[np.concatenate(([0], run_bounds))].tolist()
    run_stops = run_bounds.tolist()
    run_stops.append(len(sorted_runs))
    window_codes: List[int] = []
    first = block_start = 0
    while first < len(run_ids):
        # The longest prefix of the remaining runs that fits in
        # GATHER_ROWS rows, or the next run alone when it does not.
        last = max(
            bisect_right(run_stops, block_start + GATHER_ROWS, first),
            first + 1,
        )
        block_stop = run_stops[last - 1]
        picks = positions[block_start:block_stop]
        requests = zip(
            keys[picks].tolist(),
            op_codes[picks].tolist(),
            slab_classes[picks].tolist(),
            item_bytes[picks].tolist(),
        )
        run_start = block_start
        for run_id, run_stop in zip(run_ids[first:last], run_stops[first:last]):
            shard, app_id = divmod(run_id, num_apps)
            rows = islice(requests, run_stop - run_start)
            run_start = run_stop
            if shard in dead:
                codes = [(OUTCOME_DEAD << 2) | row[1] for row in rows]
            else:
                codes = servers[shard].engines[app_table[app_id]].process_run(
                    rows
                )
            runs.append((shard, app_id, Counter(codes)))
            if cuts:
                window_codes += codes
        first = last
        block_start = block_stop
    if not cuts:
        return runs, []
    return runs, cut_tallies(np.array(window_codes), positions, cuts)


def cut_tallies(
    packed: np.ndarray, rows: np.ndarray, cuts: Sequence[int]
) -> List[CutTally]:
    """``(GET hits, GETs)`` of the rows before each cut and at or after
    the one before it: ``packed[i]`` is row ``rows[i]``'s ``(code << 2)
    | op``, in any row order."""
    parts = np.searchsorted(cuts, rows, side="right")
    gets = (packed & 3) == OP_GET
    hits = gets & (packed & (OUTCOME_HIT << 2) != 0)
    size = len(cuts) + 1
    return list(
        zip(
            map(int, np.bincount(parts[hits], minlength=size)[:-1]),
            map(int, np.bincount(parts[gets], minlength=size)[:-1]),
        )
    )


def flush_runs(
    servers: Servers, app_table: Sequence[str], runs: Sequence[Run]
) -> None:
    """Add run tallies to the shard registries, in the order given.

    :func:`replay_runs` returns runs in ascending composite order and
    the parallel replay concatenates its workers' contiguous shard
    blocks in worker order, so registry keys are inserted in the same
    order whichever executor produced the tallies.
    """
    for shard, app_id, counts in runs:
        record_bulk = servers[shard].stats.record_code_bulk
        app = app_table[app_id]
        for packed, count in counts.items():
            record_bulk(app, packed & 3, packed >> 2, count)
