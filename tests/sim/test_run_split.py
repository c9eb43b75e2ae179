"""An engine's run is only a loop: how rows are cut into runs changes
nothing.

``Engine.process_run`` hoists what a run cannot change out of its loop
and counts operations in locals, adding them to ``ops`` once at the end.
The replay kernel hands an engine whole (shard, app) runs, a single
request goes through ``process_fast`` as a run of one row, and a live
batch cuts runs wherever its windows end, so every engine must answer
the same however its rows are cut. For every engine row of the call
budget (``tests/sim/test_call_budget.py``), Hypothesis draws GET / SET /
DELETE rows over a few keys and three slab classes, ``fill_on_miss``,
and budget shrinks and grows between runs; the rows fed as one run per
segment must give the same codes, ``OpCounter``, ``capacities()`` and
``used_bytes()`` as the same rows fed one row per run.

Both sides would agree if an engine forgot to add its counts to ``ops``,
so the operation counts are also held to what the codes say: one hash
lookup per GET and DELETE, one promote per GET hit, the evictions the
codes carry, and a store per SET and filled miss (at least one per
resident key, where a slab engine may bypass a starved class).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.engines import Engine
from repro.cache.log_structured import GlobalLRUEngine
from repro.cache.slabs import SlabGeometry
from repro.cache.stats import (
    EVICTED_SHIFT,
    OP_DELETE,
    OP_GET,
    OP_SET,
    OUTCOME_HIT,
)
from repro.core.engine import ClimbingEngine
from repro.sim import make_engine
from tests.perf_counts import is_engine_row
from tests.sim.test_call_budget import BUDGET

GEO = SlabGeometry.default()
#: Value sizes landing in three slab classes.
VALUE_SIZES = (40, 200, 900)
CLASSES = sorted({GEO.row(2, size)[0] for size in VALUE_SIZES})
BIGGEST_CHUNK = GEO.chunk_size(CLASSES[-1])
ENGINE_ROWS = sorted(filter(is_engine_row, BUDGET))

def row_sizes(key_size, value_size):
    """``(class_index, item_bytes)``: ``SlabGeometry.row`` less the
    chunk, which an engine reads from its own ladder."""
    class_index, _, item_bytes = GEO.row(key_size, value_size)
    return class_index, item_bytes


ROWS = st.tuples(
    st.integers(0, 11).map(lambda i: f"k{i}"),
    st.sampled_from((OP_GET, OP_GET, OP_SET, OP_DELETE)),
    st.sampled_from(VALUE_SIZES),
).map(lambda row: (row[0], row[1], *row_sizes(len(row[0]), row[2])))
#: A budget change between two runs: ``(grow?, bytes)``.
CHANGES = st.none() | st.tuples(
    st.booleans(), st.integers(0, 3 * BIGGEST_CHUNK)
)


def build(scheme, policy, chunks, fill_on_miss):
    budget = float(chunks * BIGGEST_CHUNK)
    plan = None
    if scheme == "planned":
        # The last class is left out: it bypasses the cache.
        plan = {index: budget / 3 for index in CLASSES[:-1]}
    overrides = {}
    if scheme in ("cliffhanger", "cliff-only", "hill-only"):
        # Small probes and gate, so that cliff scaling runs at all.
        overrides = {"probe_items": 2, "min_cliff_items": 4}
    engine = make_engine(
        scheme, "a", budget, scale=0.001, plan=plan, policy=policy,
        geometry=GEO, **overrides,
    )
    engine.fill_on_miss = fill_on_miss
    return engine


def state(engine):
    return vars(engine.ops), engine.capacities(), engine.used_bytes()


def check_counts(engine, rows, codes):
    """The operation counts the codes imply."""
    gets = [code for (_, op, *_), code in zip(rows, codes) if op == OP_GET]
    deletes = sum(1 for _, op, *_ in rows if op == OP_DELETE)
    evicted = sum(code >> (EVICTED_SHIFT + 2) for code in codes)
    ops = engine.ops
    assert ops.hash_lookups == len(gets) + deletes
    assert ops.promotes == sum(1 for code in gets if code >> 2 & OUTCOME_HIT)
    assert ops.evictions >= evicted
    if isinstance(engine, ClimbingEngine):
        misses = len(gets) - ops.promotes
        stores = len(rows) - deletes - len(gets)
        if engine.fill_on_miss:
            stores += misses
        assert ops.inserts == stores
        assert ops.shadow_lookups == misses + stores
        assert ops.evictions == ops.shadow_inserts == evicted
        assert ops.routes == engine.routes_per_request * len(rows)
    elif isinstance(engine, GlobalLRUEngine):  # every miss fills
        assert ops.inserts == len(rows) - deletes - ops.promotes
    else:
        # A slab engine's store may bypass a starved class, but every
        # resident key was stored.
        stores = len(rows) - deletes - ops.promotes
        assert len(engine._class_of_key) <= ops.inserts <= stores


@pytest.mark.parametrize(
    "scheme,policy", ENGINE_ROWS, ids=["-".join(row) for row in ENGINE_ROWS]
)
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    chunks=st.sampled_from((2, 5, 12)),
    fill_on_miss=st.booleans(),
    segments=st.lists(
        st.tuples(st.lists(ROWS, max_size=40), CHANGES), max_size=5
    ),
)
def test_one_run_equals_one_row_runs(
    scheme, policy, chunks, fill_on_miss, segments
):
    whole = build(scheme, policy, chunks, fill_on_miss)
    split = build(scheme, policy, chunks, fill_on_miss)
    all_rows, all_codes = [], []
    for rows, change in segments:
        codes = whole.process_run(rows)
        assert codes == [
            code for row in rows for code in split.process_run([row])
        ]
        assert [code & 3 for code in codes] == [row[1] for row in rows]
        assert state(whole) == state(split)
        all_rows += rows
        all_codes += codes
        if change is not None:
            grow, delta = change
            for engine in (whole, split):
                if grow:
                    engine.grow_budget(delta)
                else:
                    engine.shrink_budget(delta)
            assert state(whole) == state(split)
    check_counts(whole, all_rows, all_codes)


@pytest.mark.parametrize(
    "scheme,policy", ENGINE_ROWS, ids=["-".join(row) for row in ENGINE_ROWS]
)
def test_process_fast_is_the_one_row_door(scheme, policy):
    """No engine has a second request path: ``process_fast`` is the base
    class's run of one row."""
    engine = build(scheme, policy, 5, True)
    assert type(engine).process_fast is Engine.process_fast
