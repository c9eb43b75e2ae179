"""Table 3: cross-application memory optimization (top-5 apps).

The Dynacache solver applied *across* applications sharing a server:
profile each app's byte-granularity hit-rate curve (byte-weighted stack
distances over its whole request stream), solve Eq. 1 over apps with the
combined reservation as the budget, re-run with the re-balanced
reservations. Paper shape: the over-provisioned giant (application 1)
donates memory to the starved application 2, whose hit rate jumps
(27.5% -> 38.6%) while the donor barely moves.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.allocation.dynacache import DynacacheSolver
from repro.cache.stats import OP_GET
from repro.experiments.common import ExperimentResult
from repro.profiling.hrc import HitRateCurve
from repro.profiling.stack_distance import StackDistanceProfiler
from repro.sim import FULL_SCALE, Scenario, load_workload, run_scenario

APPS = (1, 2, 3, 4, 5)


def _app_byte_curves(
    trace,
) -> Tuple[Dict[str, HitRateCurve], Dict[str, int]]:
    """Byte-weighted stack-distance curve and GET count per application."""
    curves = {}
    frequencies = {}
    for app in trace.app_names:
        compiled = trace.compiled_for(app)
        profiler = StackDistanceProfiler()
        gets = 0
        for key, op, item_bytes in zip(
            compiled.keys.tolist(),
            compiled.op_codes.tolist(),
            compiled.item_bytes.tolist(),
        ):
            if op != OP_GET:
                continue
            gets += 1
            profiler.record(key, weight=float(item_bytes))
        frequencies[app] = gets
        if gets >= 2:
            curves[app] = HitRateCurve.from_stack_distances(
                profiler.distances, unit="bytes"
            )
    return curves, frequencies


def run(scale: float = FULL_SCALE, seed: int = 0) -> ExperimentResult:
    trace = load_workload(
        "memcachier", scale=scale, seed=seed, apps=list(APPS)
    )
    names = trace.app_names
    total_memory = sum(trace.reservations[app] for app in names)

    base = Scenario(
        workload="memcachier",
        workload_params={"apps": list(APPS)},
        scale=scale,
        seed=seed,
        scheme="default",
    )
    original = run_scenario(base)
    curves, frequencies = _app_byte_curves(trace)
    solver = DynacacheSolver(granularity=max(4096.0, total_memory / 512))
    plan = solver.allocate(curves, frequencies, total_memory)
    new_budgets = {
        app: max(64 * 1024, plan.allocations.get(app, 0.0))
        for app in names
    }
    solved = run_scenario(base.replace(budgets=new_budgets))

    result = ExperimentResult(
        experiment_id="tab3",
        title="Cross-application optimization (top 5 apps)",
        headers=[
            "app",
            "orig_mem_pct",
            "solver_mem_pct",
            "orig_hit_rate",
            "solver_hit_rate",
        ],
        paper_reference="Table 3",
    )
    for app in names:
        result.rows.append(
            [
                app,
                trace.reservations[app] / total_memory * 100.0,
                new_budgets[app] / total_memory * 100.0,
                original.hit_rates[app],
                solved.hit_rates[app],
            ]
        )
    result.notes = (
        "expected shape: memory flows from over-provisioned to starved "
        "applications; the starved app's hit rate rises sharply"
    )
    return result
