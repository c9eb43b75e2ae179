"""Count-level pins for the slab-engine schemes.

Every :class:`~repro.cache.stats.OpCounter` field and every ``(app,
slab class)`` :class:`~repro.cache.stats.HitMissCounter` field of the
stock schemes -- ``default`` (:class:`~repro.cache.engines.
FirstComeFirstServeEngine`) under each eviction policy, ``lsm``
(:class:`~repro.cache.log_structured.GlobalLRUEngine`) and ``planned``
(:class:`~repro.cache.engines.PlannedEngine` on the Dynacache solver's
plan) -- recorded at seed 0 from the engines and policies as they stood
before the LRU policy dropped its :class:`~repro.cache.keyqueue.KeyQueue`.
The companion of ``test_climbing_pins.py``: a rewrite of the policies or
the slab engine's request path must reproduce these literals, not just
the hit rates.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim import Scenario, run_scenario
from tests.sim.test_climbing_pins import CLASS_FIELDS

#: (scheme, policy) -> (``OpCounter`` fields in declaration order,
#: {(app, class): counter tuple in ``CLASS_FIELDS`` order}). Memcachier
#: apps 5 and 19, scale 0.012, seed 0: 36 000 GETs. The slab engines
#: keep no shadow queues and route nothing, so the last four
#: ``OpCounter`` fields stay zero.
PINS = {
    ("default", "arc"): (
        (36000, 29040, 6960, 5563, 0, 0, 0, 0),
        {
            ("app05", 4): (2464, 185, 0, 0, 18, 0),
            ("app05", 5): (2512, 189, 0, 0, 19, 0),
            ("app05", 6): (2334, 261, 0, 0, 155, 0),
            ("app05", 7): (2407, 323, 0, 0, 232, 0),
            ("app05", 8): (2309, 315, 0, 0, 221, 0),
            ("app05", 9): (2348, 353, 0, 0, 266, 0),
            ("app19", 2): (11759, 2055, 0, 0, 1748, 0),
            ("app19", 3): (2195, 914, 0, 0, 793, 0),
            ("app19", 5): (712, 2365, 0, 0, 2111, 0),
        },
    ),
    ("default", "facebook"): (
        (36000, 27642, 8358, 6961, 0, 0, 0, 0),
        {
            ("app05", 4): (2464, 185, 0, 0, 18, 0),
            ("app05", 5): (2512, 189, 0, 0, 19, 0),
            ("app05", 6): (2334, 261, 0, 0, 155, 0),
            ("app05", 7): (2412, 318, 0, 0, 227, 0),
            ("app05", 8): (2319, 305, 0, 0, 211, 0),
            ("app05", 9): (2350, 351, 0, 0, 264, 0),
            ("app19", 2): (11246, 2568, 0, 0, 2261, 0),
            ("app19", 3): (1297, 1812, 0, 0, 1691, 0),
            ("app19", 5): (708, 2369, 0, 0, 2115, 0),
        },
    ),
    ("default", "lru"): (
        (36000, 28943, 7057, 5660, 0, 0, 0, 0),
        {
            ("app05", 4): (2462, 187, 0, 0, 20, 0),
            ("app05", 5): (2511, 190, 0, 0, 20, 0),
            ("app05", 6): (2320, 275, 0, 0, 169, 0),
            ("app05", 7): (2380, 350, 0, 0, 259, 0),
            ("app05", 8): (2307, 317, 0, 0, 223, 0),
            ("app05", 9): (2340, 361, 0, 0, 274, 0),
            ("app19", 2): (11857, 1957, 0, 0, 1650, 0),
            ("app19", 3): (2149, 960, 0, 0, 839, 0),
            ("app19", 5): (617, 2460, 0, 0, 2206, 0),
        },
    ),
    ("lsm", "lru"): (
        (36000, 30569, 5431, 3822, 0, 0, 0, 0),
        {
            ("app05", 4): (2414, 235, 0, 0, 6, 0),
            ("app05", 5): (2472, 229, 0, 0, 10, 0),
            ("app05", 6): (2404, 191, 0, 0, 23, 0),
            ("app05", 7): (2532, 198, 0, 0, 38, 0),
            ("app05", 8): (2416, 208, 0, 0, 178, 0),
            ("app05", 9): (2466, 235, 0, 0, 474, 0),
            ("app19", 2): (12297, 1517, 0, 0, 163, 0),
            ("app19", 3): (2734, 375, 0, 0, 82, 0),
            ("app19", 5): (834, 2243, 0, 0, 2848, 0),
        },
    ),
    ("planned", "lru"): (
        (36000, 27410, 5481, 3560, 0, 0, 0, 0),
        {
            ("app05", 4): (2466, 183, 0, 0, 0, 0),
            ("app05", 5): (2514, 187, 0, 0, 11, 0),
            ("app05", 6): (2417, 178, 0, 0, 18, 0),
            ("app05", 7): (2517, 213, 0, 0, 73, 0),
            ("app05", 8): (2363, 261, 0, 0, 149, 0),
            ("app05", 9): (2188, 513, 0, 0, 456, 0),
            ("app19", 2): (12422, 1392, 0, 0, 511, 0),
            ("app19", 3): (0, 3109, 0, 0, 0, 0),
            ("app19", 5): (523, 2554, 0, 0, 2342, 0),
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
            plans="solver" if scheme == "planned" else None,
        ),
        keep_server=True,
    )
    ops, classes = PINS[(scheme, policy)]
    assert dataclasses.astuple(result.server.total_ops()) == ops
    assert {
        key: tuple(getattr(counter, field) for field in CLASS_FIELDS)
        for key, counter in result.stats.by_app_class.items()
    } == classes
