"""Columnar generation equals request-at-a-time generation.

For every stream kind -- random parameters and seeds, nested mixtures
and flash-crowd bases, the edges listed per strategy -- the columns a
stream builds, compiled by ``CompiledTrace.compile``, are the
:class:`CompiledTrace` it makes of the oracle's requests (``tests/workloads/reference_streams.py``), column by
column and table by table; and the ``generate`` adapter yields the
oracle's very requests.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.cache.slabs import SlabGeometry
from repro.workloads.compiled import COLUMN_DTYPES, CompiledTrace
from repro.workloads.facebook import FacebookETCStream, UniqueKeyStream
from repro.workloads.generators import (
    Component,
    FlashCrowdStream,
    MixtureStream,
    Phase,
    PhasedZipfStream,
    ReuseDistanceStream,
    ZipfPhase,
    ZipfStream,
)
from repro.workloads.sizes import FixedSize, GeneralizedParetoSize
from tests.workloads import reference_streams as reference

GEOMETRY = SlabGeometry.default()

#: Row counts: the n in {0, 1, 2} edges, then anything small.
counts = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 240))
seeds = st.integers(0, 2**16)
unit = st.floats(0.0, 1.0, allow_nan=False)
size_models = st.one_of(
    st.integers(1, 3000).map(FixedSize),
    st.builds(GeneralizedParetoSize, st.floats(10.0, 500.0), st.floats(0.05, 0.6)),
    st.just(GeneralizedParetoSize()),
)
#: Two namespaces, so sibling components can share key strings (with
#: different size models) and the merge must intern by string.
namespaces = st.sampled_from(["x", "y"])


@st.composite
def fractions(draw, n):
    """A trace fraction, often exactly row ``i``'s ``i / max(1, n - 1)``
    (or ``i / n``, where a phased stream's bounds fall)."""
    i = draw(st.integers(0, max(0, n - 1)))
    return draw(st.sampled_from([i / max(1, n - 1), i / max(1, n)])
                | unit)


@st.composite
def phases(draw, n):
    start, end = sorted((draw(fractions(n)), draw(fractions(n))))
    assume(start < end)
    multiplier = draw(st.sampled_from([0.0]) | st.floats(0.0, 10.0))
    return Phase(start, end, multiplier)


@st.composite
def streams(draw, n, app="a", depth=2):
    kinds = ["zipf", "phased", "reuse", "etc", "unique"]
    if depth:
        kinds += ["flash", "mixture"]
    kind = draw(st.sampled_from(kinds))
    seed = draw(seeds)
    if kind == "zipf":
        return ZipfStream(
            app, draw(st.integers(1, 60)), draw(st.floats(0.0, 2.0)),
            draw(size_models), draw(namespaces), draw(unit), seed,
        )
    if kind == "phased":
        starts = sorted({draw(fractions(n)) for _ in range(draw(st.integers(0, 3)))})
        starts = [0.0] + [s for s in starts if 0.0 < s < 1.0]
        return PhasedZipfStream(
            app,
            [
                ZipfPhase(start, draw(st.floats(0.0, 2.0)),
                          draw(st.integers(1, 40)), draw(st.integers(0, 50)))
                for start in starts
            ],
            draw(size_models), draw(namespaces), draw(unit), seed,
        )
    if kind == "reuse":
        return ReuseDistanceStream(
            app, draw(st.integers(2, 40)), draw(st.integers(1, 20)),
            draw(size_models), draw(st.integers(1, 5)), draw(namespaces), seed,
        )
    if kind == "etc":
        return FacebookETCStream(
            app, draw(st.integers(1, 60)), draw(st.floats(0.0, 2.0)), draw(unit), seed
        )
    if kind == "unique":
        return UniqueKeyStream(app, draw(unit), seed)
    if kind == "flash":
        start = draw(fractions(n).filter(lambda f: f < 1.0))
        # Often a window that ends exactly at 1.0.
        end = draw(st.just(1.0) | fractions(n))
        assume(start < end and start + (end - start) <= 1.0)
        return FlashCrowdStream(
            app, draw(streams(n, app, depth - 1)), draw(size_models),
            draw(st.integers(1, 6)), draw(unit), start, end - start,
            draw(st.floats(0.0, 2.0)), draw(namespaces), seed,
        )
    components = [
        Component(
            draw(streams(n, app, depth - 1)),
            # Zero often, so that every weight is zero now and then.
            draw(st.sampled_from([0.0]) | st.floats(0.0, 3.0)),
            tuple(draw(st.lists(phases(n), max_size=2))),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return MixtureStream(app, components, seed)


def assert_same_trace(actual: CompiledTrace, expected: CompiledTrace) -> None:
    assert actual.app_table == expected.app_table
    assert actual.key_table == expected.key_table
    for name, dtype in COLUMN_DTYPES.items():
        mine, theirs = getattr(actual, name), getattr(expected, name)
        assert mine.dtype == theirs.dtype == np.dtype(dtype), name
        assert mine.tolist() == theirs.tolist(), name


@st.composite
def stream_and_count(draw):
    n = draw(counts)
    return draw(streams(n)), n


@settings(max_examples=200, deadline=None)
@given(case=stream_and_count(), duration=st.floats(1.0, 1e6), start=st.floats(0.0, 1e3))
def test_columns_equal_the_request_at_a_time_stream(case, duration, start):
    stream, n = case
    expected = list(reference.generate(stream, n, duration, start))
    assert_same_trace(
        CompiledTrace.compile([stream.columns(n, duration, start)], GEOMETRY),
        CompiledTrace.compile(expected, GEOMETRY),
    )
    assert list(stream.generate(n, duration, start)) == expected


@st.composite
def tenants(draw):
    """Streams of apps drawn with repeats, in any order, over counts
    that make their timestamps collide."""
    n = draw(counts)
    cases = []
    for _ in range(draw(st.integers(1, 3))):
        stream = draw(streams(n, draw(st.sampled_from("cab")), depth=1))
        cases.append((stream, draw(st.sampled_from([n, 2 * n, 1]))))
    return cases


@settings(max_examples=100, deadline=None)
@given(cases=tenants())
def test_merge_equals_the_heapq_merge(cases):
    expected = reference.merge_by_time(
        [reference.generate(stream, n, 3600.0) for stream, n in cases]
    )
    assert_same_trace(
        CompiledTrace.compile((stream.columns(n, 3600.0) for stream, n in cases), GEOMETRY),
        CompiledTrace.compile(expected, GEOMETRY),
    )


def test_a_phase_bound_on_a_row_switches_that_very_row():
    """Row 5 of 11 sits at fraction exactly 0.5, where the phase silences
    the first component: that row (and no earlier one) goes to the
    second, whatever the mixture's uniforms -- up to row 9, as the
    window is open at 1.0."""
    size = FixedSize(100)
    stream = MixtureStream(
        "a",
        [
            Component(ZipfStream("a", 5, 1.0, size, "x"), 1.0, (Phase(0.5, 1.0, 0.0),)),
            Component(ZipfStream("a", 5, 1.0, size, "y"), 1e-12),
        ],
        seed=3,
    )
    expected = list(reference.generate(stream, 11, 10.0))
    assert [":y:" in r.key for r in expected] == [False] * 5 + [True] * 5 + [False]
    assert list(stream.generate(11, 10.0)) == expected
