"""Figure 8: memory allocated to slabs over time (Application 5).

Application 5's popularity rotates across slab classes 4-9 during the
week; under hill climbing with 1 MB shadow queues and 4 KB credits the
per-class capacities should visibly follow the phases, which is the
paper's demonstration that the algorithm responds to workload change
(slowly -- Memcachier request rates are low).

The trace replays as compiled windows, each ending right after the
first request at or past the next sampling point; the capacities are
sampled there, stamped with that request's time.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.sim import FULL_SCALE, Scenario, build_server, load_workload
from repro.workloads.memcachier import WEEK_SECONDS

APP = "app05"
SAMPLES = 24


def run(scale: float = FULL_SCALE, seed: int = 0) -> ExperimentResult:
    trace = load_workload("memcachier", scale=scale, seed=seed, apps=[5])
    scenario = Scenario(
        scheme="hill",
        workload="memcachier",
        workload_params={"apps": [5]},
        scale=scale,
        seed=seed,
    )
    server = build_server(scenario, trace)
    engine = server.engines[APP]
    compiled = trace.compiled_for(APP)
    times = compiled.times
    interval = WEEK_SECONDS / SAMPLES

    samples = []  # (time, {series: MB})
    start = 0
    due = float(times[0]) if len(compiled) else float("inf")
    while True:
        at = int(np.searchsorted(times, due))  # first request at/after due
        if at == len(compiled):
            break
        server.replay_compiled(compiled.slice(start, at + 1))
        now = float(times[at])
        samples.append((now, {
            f"slab{idx}": capacity / (1 << 20)
            for idx, capacity in engine.capacities().items()
        }))
        while due <= now:
            due += interval
        start = at + 1
    server.replay_compiled(compiled.slice(start))

    # Classes only ever gain queues: one first seen late reads 0 before.
    series = sorted({name for _, values in samples for name in values})
    result = ExperimentResult(
        experiment_id="fig8",
        title=f"Memory allocated to slabs over time, {APP} (MB)",
        headers=["time_s"] + series,
        paper_reference="Figure 8",
    )
    for time_value, values in samples:
        result.rows.append(
            [int(time_value)] + [values.get(name, 0.0) for name in series]
        )
    result.notes = (
        "hill climbing with 1MB shadow queues / 4KB credits; capacities "
        "should track the weekly popularity phases across slab classes"
    )
    return result
