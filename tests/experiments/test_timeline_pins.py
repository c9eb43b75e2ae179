"""Seed-0 pins for the two timeline runners, ``fig8`` and ``fig9``.

Both sample one app's replay mid-stream -- fig8 the hill-climbing
engine's per-class capacities every ``WEEK_SECONDS / 24``, fig9 the
class-2 GET hit rate over 30 equal time windows -- so a change to where
the replay stops, or to what a window counts, moves their tables. The
values were recorded at ``BENCH_SCALE`` from the per-request observer
walk these runners used before they replayed compiled-trace windows.
"""

from __future__ import annotations

import hashlib
import json

from repro.experiments.registry import get_runner
from repro.sim import BENCH_SCALE

#: experiment -> (headers, rows, first row, last row, sha256 of the rows).
RECORDED = {
    "fig8": (
        ["time_s", "slab4", "slab5", "slab6", "slab7", "slab8", "slab9"],
        24,
        [0, 0.001953125, 0.0, 0.0, 0.0, 0.0, 0.0],
        [579600, 0.3134765625, 0.39306640625, 0.623046875, 1.15234375,
         2.26708984375, 4.7978515625],
        "513f17e7d25df245d3b94f418778cf6af7956f9dc2672f74b1652df4298d3f44",
    ),
    "fig9": (
        ["window_end_s", "gets", "window_hit_rate"],
        31,
        [20159, 1494, 0.7918340026773761],
        [624949, 1, 1.0],
        "391e08143d66fd7686a94e8696c46aa5ebfcc469855b26de155e87baf91df46d",
    ),
}


def rows_digest(rows) -> str:
    """sha256 of the rows' JSON (floats round-trip exactly through it)."""
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def observe(experiment_id: str):
    result = get_runner(experiment_id)(scale=BENCH_SCALE, seed=0)
    rows = result.rows
    return result.headers, len(rows), rows[0], rows[-1], rows_digest(rows)


def test_fig8_is_pinned():
    assert observe("fig8") == RECORDED["fig8"]


def test_fig9_is_pinned():
    assert observe("fig9") == RECORDED["fig9"]
