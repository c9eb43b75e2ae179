"""Order statistics shared by the runner and the comparison tool."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them --
    the estimator the acceptance check uses; one sample is its own
    quartiles."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """What every reported figure carries next to its median."""
    q1, q3 = quartiles(values)
    return {
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "samples": len(values),
    }


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if len(sorted_values) == 0:
        raise ValueError("percentile of an empty sample")
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return float(sorted_values[index])
