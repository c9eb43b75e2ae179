"""Figure 9: hit rate over time while Cliffhanger scales a cliff.

Application 19's slab class 2 is pinned inside its performance cliff
(same protocol as Table 4); under the combined algorithm the windowed hit
rate should climb from its stuck level toward the concave hull and
stabilize (the paper shows ~70% rising to ~99.7% over about 30 minutes
of trace time; our synthetic cliff starts lower and converges over a
larger fraction of the compressed week).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.experiments.table4_combined import pinned_plan
from repro.sim import (
    FULL_SCALE,
    GEOMETRY,
    Scenario,
    build_server,
    load_workload,
)

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

    samples = []  # (window_end, hits, gets)
    window = {"hits": 0, "gets": 0}

    def observer(request, outcome):
        if request.op != "get":
            return
        if GEOMETRY.row(request.key_size, request.value_size)[0] != SLAB_CLASS:
            return
        window["gets"] += 1
        window["hits"] += 1 if outcome.hit else 0

    server.add_observer(observer)
    requests = list(trace.app_requests(APP))
    if not requests:
        raise RuntimeError("empty trace")
    span = requests[-1].time - requests[0].time
    width = span / WINDOWS
    boundary = requests[0].time + width
    for request in requests:
        while request.time >= boundary:
            samples.append((boundary, window["hits"], window["gets"]))
            window["hits"] = window["gets"] = 0
            boundary += width
        server.process(request)
    samples.append((boundary, window["hits"], window["gets"]))

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
