"""Profiling and solver planning over traces.

Per-slab-class hit-rate-curve profiling (exact Mattson stack distances or
the Mimir bucket estimator) and the Dynacache solver pipeline that turns
one application's week of requests into a byte plan per slab class. Used
by the ``planned`` scheme (``Scenario(plans="solver")``) and by the
figure/table runners that inspect curves directly.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.allocation.dynacache import DynacacheSolver
from repro.cache.stats import OP_GET
from repro.common.errors import ConfigurationError
from repro.profiling.hrc import HitRateCurve
from repro.profiling.mimir import MimirProfiler
from repro.profiling.stack_distance import StackDistanceProfiler
from repro.sim.defaults import GEOMETRY
from repro.workloads.compiled import CompiledTrace


def profile_app_classes(
    trace: CompiledTrace,
    estimator: str = "exact",
) -> Tuple[Dict[int, HitRateCurve], Dict[int, int]]:
    """Per-slab-class hit-rate curves (size axis: items) and GET counts
    of a compiled trace.

    ``estimator``: ``exact`` uses Mattson stack distances; ``mimir`` the
    bucket estimator Dynacache really used (coarser, reproducing its
    estimation error).
    """
    if estimator == "exact":
        make = StackDistanceProfiler
    elif estimator == "mimir":
        make = MimirProfiler
    else:
        raise ConfigurationError(f"unknown estimator {estimator!r}")
    profilers: Dict[int, object] = {}
    frequencies: Dict[int, int] = {}
    for key, op, class_index in zip(
        trace.keys.tolist(),
        trace.op_codes.tolist(),
        trace.slab_classes.tolist(),
    ):
        if op != OP_GET:
            continue
        profiler = profilers.get(class_index)
        if profiler is None:
            profiler = profilers.setdefault(class_index, make())
        profiler.record(key)
        frequencies[class_index] = frequencies.get(class_index, 0) + 1
    curves = {
        class_index: HitRateCurve.from_stack_distances(profiler.distances)
        for class_index, profiler in profilers.items()
        if len(profiler.distances) >= 2
    }
    return curves, {c: frequencies[c] for c in curves}


def solver_plan_for_app(
    trace,
    app: str,
    estimator: str = "mimir",
    budget: Optional[float] = None,
) -> Dict[int, float]:
    """Run the Dynacache solver on one app's week of requests.

    ``trace`` is a loaded workload (:func:`repro.sim.load_workload`).
    Returns a byte plan per slab class, summing to ``budget`` (the app's
    reservation when not given).
    """
    curves_items, freqs = profile_app_classes(
        trace.compiled_for(app), estimator=estimator
    )
    if not curves_items:
        return {}
    if budget is None:
        budget = trace.reservations[app]
    curves_bytes = {
        class_index: curve.scale_sizes(
            GEOMETRY.chunk_size(class_index), unit="bytes"
        )
        for class_index, curve in curves_items.items()
    }
    granularity = max(
        GEOMETRY.chunk_size(class_index) for class_index in curves_bytes
    )
    granularity = min(granularity, budget / max(1, len(curves_bytes)))
    granularity = max(granularity, 64.0)
    plan = DynacacheSolver(granularity=granularity).allocate(
        curves_bytes, freqs, budget
    )
    return dict(plan.allocations)
