"""Figure 9: hit rate over time while Cliffhanger scales a cliff.

Application 19's slab class 2 is pinned inside its performance cliff
(same protocol as Table 4); under the combined algorithm the windowed hit
rate should climb from its stuck level toward the concave hull and
stabilize (the paper shows ~70% rising to ~99.7% over about 30 minutes
of trace time; our synthetic cliff starts lower and converges over a
larger fraction of the compressed week).
"""

from __future__ import annotations

import numpy as np

from repro.cache.stats import HitMissCounter
from repro.experiments.common import ExperimentResult
from repro.experiments.table4_combined import pinned_plan
from repro.sim import FULL_SCALE, Scenario, build_server, load_workload

APP = "app19"
SLAB_CLASS = 2
WINDOWS = 30


def run(scale: float = FULL_SCALE, seed: int = 0) -> ExperimentResult:
    trace = load_workload("memcachier", scale=scale, seed=seed, apps=[19])
    plan = pinned_plan(trace, APP)
    budget = sum(plan.values())
    scenario = Scenario(
        scheme="cliffhanger",
        workload="memcachier",
        workload_params={"apps": [19]},
        scale=scale,
        seed=seed,
        budgets={APP: budget},
    )
    server = build_server(scenario, trace)

    compiled = trace.compiled_for(APP)
    if not len(compiled):
        raise RuntimeError("empty trace")
    times = compiled.times
    width = (float(times[-1]) - float(times[0])) / WINDOWS
    boundary = float(times[0]) + width
    samples = []  # (window_end, hits, gets)
    hits = gets = 0  # class-2 GET totals before the window
    start = 0
    while True:
        # The window: every request before the first one at or after
        # ``boundary``. The engine charges a request its own row's class,
        # so the class counter's delta is the window's class-2 GETs.
        stop = int(np.searchsorted(times, boundary))
        server.replay_compiled(compiled.slice(start, stop))
        counter = server.stats.by_app_class.get(
            (APP, SLAB_CLASS), HitMissCounter()
        )
        samples.append(
            (boundary, counter.get_hits - hits, counter.gets - gets)
        )
        hits, gets = counter.get_hits, counter.gets
        if stop == len(compiled):
            break
        start, boundary = stop, boundary + width

    result = ExperimentResult(
        experiment_id="fig9",
        title=f"Hit rate over time, {APP} slab class {SLAB_CLASS}",
        headers=["window_end_s", "gets", "window_hit_rate"],
        paper_reference="Figure 9",
    )
    for end, hits, gets in samples:
        result.rows.append([int(end), gets, hits / gets if gets else 0.0])
    active = [row for row in result.rows if row[1] > 0]
    if len(active) >= 6:
        early = [row[2] for row in active[:3]]
        # The paper's Figure 9 covers a stable mid-week stretch (hours
        # 48-53); our synthetic app19 has a deliberate class-3 burst in
        # the last quarter (section 5.4 behaviour), so convergence is
        # judged on the stable window before it.
        stable = [
            row[2]
            for row in active[
                int(len(active) * 0.45): int(len(active) * 0.7)
            ]
        ]
        post_burst = [row[2] for row in active[-3:]]
        result.notes = (
            f"early mean {sum(early)/len(early):.3f} -> stable "
            f"(pre-burst) mean {sum(stable)/max(1, len(stable)):.3f} -> "
            f"post-burst mean {sum(post_burst)/len(post_burst):.3f}; "
            f"expected: climb while the pointers find the cliff (paper: "
            f"~0.70 -> ~0.997), then hill climbing trades memory to the "
            f"bursting class"
        )
    return result
