"""Count-level pins for the shadow-climbing schemes.

Every :class:`~repro.cache.stats.OpCounter` field and every ``(app,
slab class)`` :class:`~repro.cache.stats.HitMissCounter` field of the
four schemes built on :class:`repro.core.engine.ClimbingEngine`,
recorded at seed 0 from the two hand-written engines the shared
skeleton replaced. Hit-rate diffs forgive a miscounted eviction or a
shadow hit credited to the wrong class; these literals do not, so a
rebuild of the queues underneath (``QueueChain``, the policies) inherits
a net that catches them.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim import Scenario, run_scenario

#: The ``HitMissCounter`` fields pinned per ``(app, slab class)``.
CLASS_FIELDS = (
    "get_hits", "get_misses", "sets", "shadow_hits", "evictions",
    "dead_requests",
)

#: (scheme, policy) -> (``OpCounter`` fields in declaration order --
#: hash_lookups, promotes, inserts, evictions, shadow_lookups,
#: shadow_inserts, shadow_evictions, routes --, {(app, class): counter
#: tuple in ``CLASS_FIELDS`` order}). Memcachier apps 5 and 19, scale
#: 0.012, seed 0: 36 000 GETs.
PINS = {
    ("hill", "lru"): (
        (36000, 29734, 6266, 4562, 12532, 4562, 0, 0),
        {
            ("app05", 4): (2463, 186, 0, 3, 15, 0),
            ("app05", 5): (2511, 190, 0, 6, 17, 0),
            ("app05", 6): (2333, 262, 0, 14, 151, 0),
            ("app05", 7): (2381, 349, 0, 7, 257, 0),
            ("app05", 8): (2305, 319, 0, 2, 225, 0),
            ("app05", 9): (2328, 373, 0, 0, 287, 0),
            ("app19", 2): (12160, 1654, 0, 109, 1136, 0),
            ("app19", 3): (2664, 445, 0, 80, 245, 0),
            ("app19", 5): (589, 2488, 0, 18, 2229, 0),
        },
    ),
    # Re-recorded when a one-chunk Facebook queue stopped evicting its
    # own insert (probation may use what the protected half leaves free).
    ("hill", "facebook"): (
        (36000, 29867, 6133, 4413, 12266, 4413, 0, 0),
        {
            ("app05", 4): (2465, 184, 0, 1, 14, 0),
            ("app05", 5): (2512, 189, 0, 5, 16, 0),
            ("app05", 6): (2337, 258, 0, 5, 148, 0),
            ("app05", 7): (2413, 317, 0, 3, 225, 0),
            ("app05", 8): (2318, 306, 0, 2, 211, 0),
            ("app05", 9): (2345, 356, 0, 0, 270, 0),
            ("app19", 2): (12151, 1663, 0, 111, 1147, 0),
            ("app19", 3): (2647, 462, 0, 97, 245, 0),
            ("app19", 5): (679, 2398, 0, 16, 2137, 0),
        },
    ),
    ("hill", "arc"): (
        (36000, 29909, 6091, 4356, 12182, 4356, 0, 0),
        {
            ("app05", 4): (2465, 184, 0, 1, 13, 0),
            ("app05", 5): (2512, 189, 0, 5, 17, 0),
            ("app05", 6): (2344, 251, 0, 5, 141, 0),
            ("app05", 7): (2414, 316, 0, 3, 223, 0),
            ("app05", 8): (2306, 318, 0, 8, 223, 0),
            ("app05", 9): (2337, 364, 0, 0, 278, 0),
            ("app19", 2): (12193, 1621, 0, 131, 1078, 0),
            ("app19", 3): (2655, 454, 0, 89, 245, 0),
            ("app19", 5): (683, 2394, 0, 7, 2138, 0),
        },
    ),
    ("hill-only", "lru"): (
        (36000, 29267, 6733, 5071, 13466, 5071, 0, 36000),
        {
            ("app05", 4): (2463, 186, 0, 0, 16, 0),
            ("app05", 5): (2511, 190, 0, 0, 18, 0),
            ("app05", 6): (2331, 264, 0, 5, 154, 0),
            ("app05", 7): (2381, 349, 0, 6, 257, 0),
            ("app05", 8): (2305, 319, 0, 3, 224, 0),
            ("app05", 9): (2328, 373, 0, 0, 287, 0),
            ("app19", 2): (12157, 1657, 0, 97, 1160, 0),
            ("app19", 3): (2197, 912, 0, 58, 734, 0),
            ("app19", 5): (594, 2483, 0, 19, 2221, 0),
        },
    ),
    ("cliff-only", "lru"): (
        (36000, 28157, 7843, 5510, 15686, 5510, 0, 36000),
        {
            ("app05", 4): (2464, 185, 0, 0, 15, 0),
            ("app05", 5): (2512, 189, 0, 0, 17, 0),
            ("app05", 6): (2331, 264, 0, 5, 154, 0),
            ("app05", 7): (2381, 349, 0, 6, 257, 0),
            ("app05", 8): (2307, 317, 0, 5, 223, 0),
            ("app05", 9): (2333, 368, 0, 0, 282, 0),
            ("app19", 2): (11882, 1932, 0, 183, 1624, 0),
            ("app19", 3): (1330, 1779, 0, 322, 732, 0),
            ("app19", 5): (617, 2460, 0, 19, 2206, 0),
        },
    ),
    ("cliffhanger", "lru"): (
        (36000, 29318, 6682, 4792, 13364, 4792, 0, 36000),
        {
            ("app05", 4): (2463, 186, 0, 0, 16, 0),
            ("app05", 5): (2511, 190, 0, 0, 18, 0),
            ("app05", 6): (2331, 264, 0, 5, 154, 0),
            ("app05", 7): (2381, 349, 0, 6, 257, 0),
            ("app05", 8): (2305, 319, 0, 3, 224, 0),
            ("app05", 9): (2328, 373, 0, 0, 287, 0),
            ("app19", 2): (12115, 1699, 0, 101, 1194, 0),
            ("app19", 3): (2293, 816, 0, 72, 420, 0),
            ("app19", 5): (591, 2486, 0, 20, 2222, 0),
        },
    ),
}


@pytest.mark.parametrize("scheme,policy", sorted(PINS))
def test_counts_match_the_recorded_run(scheme, policy):
    result = run_scenario(
        Scenario(
            workload="memcachier",
            workload_params={"apps": [5, 19]},
            scheme=scheme,
            policy=policy,
            scale=0.012,
            seed=0,
        ),
        keep_server=True,
    )
    ops, classes = PINS[(scheme, policy)]
    assert dataclasses.astuple(result.server.total_ops()) == ops
    assert {
        key: tuple(getattr(counter, field) for field in CLASS_FIELDS)
        for key, counter in result.stats.by_app_class.items()
    } == classes
