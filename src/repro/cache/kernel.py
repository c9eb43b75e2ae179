"""The one replay kernel: a window of requests as per-(shard, app) runs.

Cliffhanger "runs on each memory cache server and does not require any
coordination between different servers" (paper section 4.3), so between
two barriers a replay is nothing more than independent runs: one per
(shard, app) pair, each touching one engine and one stats slice.
:func:`replay_runs` is the only place that fact is written down, and the
only compiled-trace loop in ``src/`` that walks requests into
:meth:`Engine.process_fast` (:meth:`CacheServer.replay` is the object
API, one :class:`Request` at a time). A single server
(:meth:`repro.cache.server.CacheServer.replay_compiled`, the one-shard
case), the cluster's window driver (``Cluster._drive``, behind both the
offline :meth:`repro.cluster.Cluster.replay_compiled` and the live
:meth:`repro.cluster.Cluster.process_batch`) and the parallel workers
(:mod:`repro.cluster.parallel`) all call it; they differ only in which
columns they pass (a worker's came with its start-up arguments) and
where the returned tallies go (:func:`flush_runs` in-process, a pipe
from a worker).
"""

from __future__ import annotations

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

from repro.cache.stats import OUTCOME_DEAD

if TYPE_CHECKING:  # circular at runtime: server.py replays through us
    from repro.cache.server import CacheServer

    #: Shard index -> server: a cluster's list, a worker's owned subset,
    #: or the 1-tuple of a server replaying on its own.
    Servers = Union[Sequence[CacheServer], Mapping[int, CacheServer]]

#: One run's outcome tally: ``(shard, app_id, {(code << 2) | op: count})``.
Run = Tuple[int, int, Dict[int, int]]
#: ``(keys, op_codes, slab_classes, chunk_bytes, item_bytes)`` -- keys as
#: an object array, the rest integer arrays, one row per request: a
#: compiled trace's own columns (``CompiledTrace.replay_columns``) or a
#: live batch's.
ReplayColumns = Tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray
]


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
    out: Optional[np.ndarray] = None,
) -> List[Run]:
    """Replay requests ``[start, stop)`` and return one tally per run.

    Within one window shards are independent servers and, on each shard,
    per-app engines and per-app stats share no state -- so the
    interleaved request order only matters *within* one (shard, app)
    run, which a stable sort on ``shard * num_apps + app`` preserves.
    Each run then replays with everything hoisted out of the loop: the
    engine's bound ``process_fast``, flat column gathers (``tolist``
    hands the loop plain Python objects; keys stay the interned
    strings), and a dict tally of identical packed ``(code << 2) | op``
    outcomes instead of a per-request stats walk. Counters are integer
    adds, so flushing a tally later is bit-identical to recording each
    request as it happens. Runs come back in ascending composite order.

    ``dead`` shards (the fault layer's ``miss-through`` policy) never
    reach an engine: their runs tally ``OUTCOME_DEAD`` per op -- GETs
    count as misses, SETs as sets -- which is order-free. ``owned`` is a
    per-shard boolean lookup restricting the window to a worker's
    shards; a stable sort of a subsequence keeps each run's request
    order, so a worker's runs equal the serial loop's. ``out``, when
    given, receives each request's packed outcome code at its position.
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
        return runs
    num_apps = len(app_table)
    composite = window_shards.astype(np.int64) * num_apps + window_apps
    order = np.argsort(composite, kind="stable")
    sorted_runs = composite[order]
    positions = order if members is None else members[order]
    if start:
        positions = positions + start
    run_bounds = np.flatnonzero(sorted_runs[1:] != sorted_runs[:-1]) + 1
    run_starts = np.concatenate(([0], run_bounds))
    run_stops = np.concatenate((run_bounds, [len(sorted_runs)]))
    keys, op_codes, slab_classes, chunk_bytes, item_bytes = columns
    for run_start, run_stop in zip(run_starts, run_stops):
        shard, app_id = divmod(int(sorted_runs[run_start]), num_apps)
        picks = positions[run_start:run_stop]
        counts: Dict[int, int] = {}
        if shard in dead:
            ops, op_counts = np.unique(op_codes[picks], return_counts=True)
            for op, count in zip(ops.tolist(), op_counts.tolist()):
                counts[(OUTCOME_DEAD << 2) | op] = count
            if out is not None:
                out[picks] = OUTCOME_DEAD
            runs.append((shard, app_id, counts))
            continue
        process = servers[shard].engines[app_table[app_id]].process_fast
        requests = zip(
            keys[picks].tolist(),
            op_codes[picks].tolist(),
            slab_classes[picks].tolist(),
            chunk_bytes[picks].tolist(),
            item_bytes[picks].tolist(),
        )
        if out is None:
            for key, op, class_index, chunk, nbytes in requests:
                packed = (
                    process(key, op, class_index, chunk, nbytes) << 2
                ) | op
                try:
                    counts[packed] += 1
                except KeyError:
                    counts[packed] = 1
        else:
            codes: List[int] = []
            for key, op, class_index, chunk, nbytes in requests:
                code = process(key, op, class_index, chunk, nbytes)
                codes.append(code)
                packed = (code << 2) | op
                try:
                    counts[packed] += 1
                except KeyError:
                    counts[packed] = 1
            out[picks] = codes
        runs.append((shard, app_id, counts))
    return runs


def flush_runs(
    servers: Servers, app_table: Sequence[str], runs: Sequence[Run]
) -> None:
    """Add run tallies to the shard registries, in the order given.

    :func:`replay_runs` returns runs in ascending composite order and
    the worker pool concatenates its workers' contiguous shard blocks in
    worker order, so registry keys are inserted in the same order
    whichever executor produced the tallies.
    """
    for shard, app_id, counts in runs:
        record_bulk = servers[shard].stats.record_code_bulk
        app = app_table[app_id]
        for packed, count in counts.items():
            record_bulk(app, packed & 3, packed >> 2, count)
