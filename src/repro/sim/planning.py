"""Profiling and solver planning over traces.

Per-slab-class hit-rate curves from a compiled trace's columns: the GET
rows of each slab class go, as one key list, to an exact Mattson
stack-distance function or to the Mimir bucket estimator. On top, the
Dynacache solver pipeline turns one application's week of requests into
a byte plan per slab class. Used by the ``planned`` scheme
(``Scenario(plans="solver")``) and by the figure/table runners that
inspect curves directly.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.allocation.dynacache import DynacacheSolver
from repro.cache.stats import OP_GET
from repro.common.errors import ConfigurationError
from repro.profiling.hrc import HitRateCurve
from repro.profiling.mimir import mimir_distances
from repro.profiling.stack_distance import stack_distances
from repro.sim.defaults import GEOMETRY
from repro.workloads.compiled import CompiledTrace


def profile_app_classes(
    trace: CompiledTrace,
    estimator: str = "exact",
) -> Tuple[Dict[int, HitRateCurve], Dict[int, int]]:
    """Per-slab-class hit-rate curves (size axis: items) and GET counts
    of a compiled trace, for every class with at least two GETs, in the
    order the trace first reaches each class.

    ``estimator``: ``exact`` uses Mattson stack distances; ``mimir`` the
    bucket estimator Dynacache really used (coarser, reproducing its
    estimation error).
    """
    if estimator == "exact":
        distances_of = stack_distances
    elif estimator == "mimir":
        distances_of = mimir_distances
    else:
        raise ConfigurationError(f"unknown estimator {estimator!r}")
    gets = trace.op_codes == OP_GET
    keys = trace.keys[gets]
    classes = trace.slab_classes[gets]
    present, first_row = np.unique(classes, return_index=True)
    curves: Dict[int, HitRateCurve] = {}
    frequencies: Dict[int, int] = {}
    for class_index in present[np.argsort(first_row)].tolist():
        class_keys = keys[classes == class_index].tolist()
        if len(class_keys) >= 2:
            curves[class_index] = HitRateCurve.from_stack_distances(
                distances_of(class_keys)
            )
            frequencies[class_index] = len(class_keys)
    return curves, frequencies


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
