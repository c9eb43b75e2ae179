"""The replay kernel's gather blocks change nothing but the gather count.

:func:`repro.cache.kernel.replay_runs` cuts a window's runs into blocks
of at most ``GATHER_ROWS`` rows and gathers each block's columns once.
Whatever the block size, every run must see exactly its own rows in
trace order and come back in the same place with the same tally, also
with dead shards and a worker's ``owned`` mask. Recording engines make
that visible: each logs the rows it was handed and answers a code that
depends on the row.
"""

from __future__ import annotations

from collections import defaultdict
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import kernel
from repro.cache.stats import OUTCOME_DEAD

#: One row per call, a small prime and more than any window below.
BLOCK_SIZES = (1, 7, 1 << 20)


class RecordingEngine:
    """Logs every ``process_run`` row and answers a row-dependent code."""

    def __init__(self) -> None:
        self.rows = []

    def process_run(self, rows):
        codes = []
        for key, op, class_index, nbytes in rows:
            self.rows.append((key, op, class_index, nbytes))
            code = (len(key) + class_index + nbytes) % 5
            codes.append((code << 2) | op)
        return codes


@st.composite
def windows(draw):
    shards = draw(st.integers(1, 4))
    apps = draw(st.integers(1, 3))
    total = draw(st.integers(0, 60))
    ints = st.integers(0, 30)

    def column(elements):
        return draw(st.lists(elements, min_size=total, max_size=total))

    keys = np.array(
        [f"k{i}" for i in column(st.integers(0, 12))], dtype=object
    )
    columns = (
        keys,
        np.array(column(st.integers(0, 1)), dtype=np.int8),
        np.array(column(st.integers(0, 3)), dtype=np.int16),
        np.array(column(ints), dtype=np.int32),
    )
    shard_column = np.array(column(st.integers(0, shards - 1)), dtype=np.int32)
    app_column = np.array(column(st.integers(0, apps - 1)), dtype=np.int16)
    start = draw(st.integers(0, total))
    stop = draw(st.integers(start, total))
    dead = draw(st.frozensets(st.integers(0, shards - 1)))
    owned = draw(
        st.none()
        | st.lists(st.booleans(), min_size=shards, max_size=shards).map(
            lambda flags: np.array(flags, dtype=bool)
        )
    )
    return SimpleNamespace(
        shards=shards, apps=apps, columns=columns, shard_column=shard_column,
        app_column=app_column, start=start, stop=stop, dead=dead, owned=owned,
    )


def replay(window, block_rows):
    """``(runs, per-engine row logs)`` at ``GATHER_ROWS = block_rows``."""
    app_table = [f"app{a}" for a in range(window.apps)]
    servers = [
        SimpleNamespace(engines={app: RecordingEngine() for app in app_table})
        for _ in range(window.shards)
    ]
    with patch.object(kernel, "GATHER_ROWS", block_rows):
        runs, _ = kernel.replay_runs(
            servers, app_table, window.columns, window.shard_column,
            window.app_column, window.start, window.stop, dead=window.dead,
            owned=window.owned,
        )
    logs = [
        [server.engines[app].rows for app in app_table] for server in servers
    ]
    # Tally insertion order counts: it becomes registry key order.
    return [(s, a, list(counts.items())) for s, a, counts in runs], logs


@settings(max_examples=150, deadline=None)
@given(window=windows())
def test_block_size_changes_no_run(window):
    results = [replay(window, size) for size in BLOCK_SIZES]
    assert results[1] == results[0]
    assert results[2] == results[0]

    # And the common answer is the plain per-(shard, app) walk.
    runs, logs = results[0]
    rows = list(zip(*(column.tolist() for column in window.columns)))
    expected = {}
    for i in range(window.start, window.stop):
        shard, app = int(window.shard_column[i]), int(window.app_column[i])
        if window.owned is None or window.owned[shard]:
            expected.setdefault((shard, app), []).append(rows[i])
    assert [(s, a) for s, a, _ in runs] == sorted(expected)
    for shard, app, counts in runs:
        run_rows = expected[(shard, app)]
        assert sum(count for _, count in counts) == len(run_rows)
        if shard in window.dead:
            assert logs[shard][app] == []
            assert all(packed >> 2 == OUTCOME_DEAD for packed, _ in counts)
        else:
            assert logs[shard][app] == run_rows


@pytest.mark.parametrize(
    ("shards", "apps"),
    [(4, 5), (1, 1 << 16), (2, 1 << 15), (2, (1 << 15) + 1), (3, 70_000)],
)
def test_runs_follow_the_int64_stable_sort(shards, apps):
    """Run ids below :data:`kernel.RADIX_RUNS` sort as ``uint16``, the
    rest as ``int64``; on either side of that line (here up to 209,999)
    the rows reach the engines in the order of the ``int64`` stable
    argsort of ``shard * apps + app``."""
    rng = np.random.default_rng(apps)
    total = 600
    shard_column = rng.integers(0, shards, total).astype(np.int32)
    app_column = rng.integers(0, apps, total).astype(np.int32)
    # The first and the last run id are always present.
    shard_column[:2] = (0, shards - 1)
    app_column[:2] = (0, apps - 1)
    keys = np.array([f"r{i}" for i in range(total)], dtype=object)
    zeros = np.zeros(total, dtype=np.int32)
    app_table = [f"app{a}" for a in range(apps)]
    servers = [
        SimpleNamespace(engines=defaultdict(RecordingEngine))
        for _ in range(shards)
    ]
    runs, _ = kernel.replay_runs(
        servers, app_table, (keys, zeros, zeros, zeros), shard_column,
        app_column, 0, total,
    )
    composite = shard_column.astype(np.int64) * apps + app_column
    expected = keys[np.argsort(composite, kind="stable")].tolist()
    served = [
        row[0]
        for shard, app_id, _ in runs
        for row in servers[shard].engines[app_table[app_id]].rows
    ]
    assert served == expected
    assert (composite.max() < kernel.RADIX_RUNS) == (shards * apps <= 1 << 16)
