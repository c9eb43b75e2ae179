"""HDR-style log-bucketed latency histograms.

Recording a latency is O(1) and allocation-free after warm-up: the
bucket index is a log of the value, so buckets are geometrically spaced
and relative error is bounded by the bucket growth factor (~9% at the
default 8 buckets per octave) across the whole dynamic range -- exactly
the property tail percentiles need. Counts, sum, min and max are exact.
"""

from __future__ import annotations

import math
from typing import Dict

#: Latencies are clamped into [FLOOR, CEILING) seconds before bucketing.
FLOOR = 1e-6
CEILING = 100.0
#: Buckets per octave (power of two); 8 bounds relative error to 2^(1/8).
SUBBUCKETS = 8

_LOG_GROWTH = math.log(2.0) / SUBBUCKETS
_NUM_BUCKETS = int(math.log(CEILING / FLOOR) / _LOG_GROWTH) + 2


class LatencyHistogram:
    """Log-bucketed latency recorder with percentile queries."""

    __slots__ = ("_counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self._counts = [0] * _NUM_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def record(self, seconds: float) -> None:
        value = max(float(seconds), 0.0)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._counts[self._bucket(value)] += 1

    @staticmethod
    def _bucket(value: float) -> int:
        if value <= FLOOR:
            return 0
        index = int(math.log(value / FLOOR) / _LOG_GROWTH) + 1
        return min(index, _NUM_BUCKETS - 1)

    # ------------------------------------------------------------------

    def percentile(self, quantile: float) -> float:
        """The latency at ``quantile`` in [0, 1] (0.0 when empty).

        Reported as the bucket's upper edge, clamped to the exact
        observed max -- so percentiles never exceed the true maximum
        and the relative error stays within one bucket's growth.
        """
        if self.count == 0:
            return 0.0
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        target = quantile * self.count
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= target and bucket_count:
                if index == _NUM_BUCKETS - 1:
                    # Overflow bucket (>= CEILING): its edge would
                    # underestimate, the exact max is strictly better.
                    return self.max
                upper = FLOOR * math.exp(index * _LOG_GROWTH)
                return min(upper, self.max)
        return self.max

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary_ms(self) -> Dict[str, float]:
        """The standard report block, in milliseconds."""
        return {
            "p50": self.percentile(0.50) * 1e3,
            "p95": self.percentile(0.95) * 1e3,
            "p99": self.percentile(0.99) * 1e3,
            "p999": self.percentile(0.999) * 1e3,
            "mean": self.mean() * 1e3,
            "max": (self.max if self.count else 0.0) * 1e3,
        }
