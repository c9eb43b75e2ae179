"""Hit-rate curves: construction, interpolation, hulls and cliffs.

A :class:`HitRateCurve` maps a queue size (in items or bytes) to the hit
rate an LRU queue of that size would achieve on the profiled stream. It is
built from a stack-distance multiset via the Mattson inclusion property
(hit at capacity C iff distance <= C) and supports everything the
allocation algorithms need:

* point evaluation and gradients (hill climbing theory, section 3.4);
* the concave hull (Talus / cliff scaling, section 4.2, Figure 4);
* convexity ("performance cliff") detection (section 3.5, Figure 3).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.mathutils import concave_hull as _concave_hull


class HitRateCurve:
    """A piecewise-linear hit-rate curve ``h(size)``.

    Attributes:
        sizes: Strictly-increasing sample sizes (first is 0).
        hit_rates: Hit rate in [0, 1] at each size (non-decreasing).
        total_requests: Number of accesses the curve was estimated from
            (used to convert rates to absolute hit counts).
        unit: Label for the size axis ("items" or "bytes").
    """

    def __init__(
        self,
        sizes: Sequence[float],
        hit_rates: Sequence[float],
        total_requests: int,
        unit: str = "items",
    ) -> None:
        if len(sizes) != len(hit_rates) or len(sizes) < 2:
            raise ConfigurationError(
                "curve needs >= 2 aligned (size, hit_rate) samples"
            )
        self.sizes = np.asarray(sizes, dtype=float)
        self.hit_rates = np.asarray(hit_rates, dtype=float)
        if np.any(np.diff(self.sizes) <= 0):
            raise ConfigurationError("sizes must be strictly increasing")
        if self.sizes[0] != 0.0:
            raise ConfigurationError("curve must start at size 0")
        if np.any(self.hit_rates < -1e-9) or np.any(self.hit_rates > 1 + 1e-9):
            raise ConfigurationError("hit rates must lie in [0, 1]")
        self.total_requests = int(total_requests)
        self.unit = unit

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_stack_distances(
        cls,
        distances: Iterable[Optional[float]],
        max_size: Optional[int] = None,
        unit: str = "items",
    ) -> "HitRateCurve":
        """Build a curve from a stream of stack distances.

        ``None`` entries (cold/compulsory accesses) count toward the total
        but never toward hits, which caps the curve below 1 exactly as the
        paper's curves plateau (e.g. Figure 3 plateaus near 0.78).
        ``max_size`` truncates the size axis; distances beyond it still
        count as misses at every plotted size.
        """
        finite: List[float] = []
        total = 0
        for distance in distances:
            total += 1
            if distance is not None:
                finite.append(float(distance))
        if total == 0:
            raise ConfigurationError("cannot build a curve from zero accesses")
        if not finite:
            limit = float(max_size or 1)
            return cls([0.0, limit], [0.0, 0.0], total, unit=unit)
        finite_arr = np.sort(np.asarray(finite))
        limit = float(max_size) if max_size else float(finite_arr[-1])
        # Sample at every distinct distance <= limit: between distinct
        # distances the step function is flat, so this is lossless.
        distinct = np.unique(finite_arr[finite_arr <= limit])
        sizes = np.concatenate(([0.0], distinct))
        if sizes[-1] < limit:
            sizes = np.concatenate((sizes, [limit]))
        # hits(c) = #{d <= c}
        counts = np.searchsorted(finite_arr, sizes, side="right")
        hit_rates = counts / float(total)
        return cls(sizes, hit_rates, total, unit=unit)

    @classmethod
    def from_points(
        cls,
        points: Sequence[Tuple[float, float]],
        total_requests: int,
        unit: str = "items",
    ) -> "HitRateCurve":
        """Build a curve from explicit (size, hit rate) points (synthetic
        curves in tests and theory checks)."""
        ordered = sorted(points)
        sizes = [p[0] for p in ordered]
        rates = [p[1] for p in ordered]
        if not sizes or sizes[0] != 0.0:
            sizes = [0.0] + sizes
            rates = [rates[0] if rates else 0.0] + rates
        return cls(sizes, rates, total_requests, unit=unit)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    @property
    def max_size(self) -> float:
        return float(self.sizes[-1])

    def hit_rate(self, size: float) -> float:
        """Hit rate at ``size`` (linear interpolation, clamped)."""
        return float(
            np.interp(size, self.sizes, self.hit_rates)
        )

    # ------------------------------------------------------------------
    # Hulls and cliffs
    # ------------------------------------------------------------------

    def hull_points(self) -> List[Tuple[float, float]]:
        """Vertices of the least concave majorant."""
        return _concave_hull(list(zip(self.sizes, self.hit_rates)))

    def concave_hull(self) -> "HitRateCurve":
        """The concave hull as a new curve (what Talus can achieve)."""
        points = self.hull_points()
        return HitRateCurve.from_points(
            points, self.total_requests, unit=self.unit
        )

    def is_concave(self, tolerance: float = 1e-6) -> bool:
        """True if the curve deviates from its hull by < ``tolerance``
        everywhere (i.e. it has no performance cliffs)."""
        hull = self.concave_hull()
        deviation = max(
            hull.hit_rate(s) - r for s, r in zip(self.sizes, self.hit_rates)
        )
        return deviation < tolerance

    def cliffs(self, tolerance: float = 0.01) -> List[Tuple[float, float]]:
        """Performance-cliff regions as ``(start_size, end_size)`` pairs.

        A cliff is a maximal size interval where the curve sits more than
        ``tolerance`` below its concave hull -- exactly the convex regions
        hill climbing gets stuck in (section 3.5). The returned endpoints
        are the hull anchors bracketing the region, i.e. the two sizes the
        cliff-scaling pointers should converge to.
        """
        hull = self.hull_points()
        if len(hull) < 2:
            return []
        cliffs: List[Tuple[float, float]] = []
        for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
            mask = (self.sizes > x0) & (self.sizes < x1)
            if not np.any(mask):
                continue
            xs = self.sizes[mask]
            ys = self.hit_rates[mask]
            chord = y0 + (xs - x0) / (x1 - x0) * (y1 - y0)
            if np.any(chord - ys > tolerance):
                cliffs.append((float(x0), float(x1)))
        return cliffs

    def hull_anchors_for(
        self, size: float, tolerance: float = 0.01
    ) -> Optional[Tuple[float, float]]:
        """If ``size`` sits inside a cliff, return that cliff's hull
        anchors (the paper's example: size 8000 on Application 19 slab 0
        returns roughly (2000, 13500)); otherwise None."""
        for start, end in self.cliffs(tolerance):
            if start <= size <= end:
                return (start, end)
        return None

    # ------------------------------------------------------------------

    def scale_sizes(self, factor: float, unit: Optional[str] = None) -> "HitRateCurve":
        """Return the same curve with the size axis multiplied by
        ``factor`` -- e.g. items -> bytes via the slab chunk size."""
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        return HitRateCurve(
            self.sizes * factor,
            self.hit_rates,
            self.total_requests,
            unit=unit or self.unit,
        )

    def resample(self, num_points: int) -> "HitRateCurve":
        """Downsample to ``num_points`` evenly spaced sizes (plotting)."""
        if num_points < 2:
            raise ConfigurationError("need at least 2 points")
        sizes = np.linspace(0.0, self.max_size, num_points)
        rates = np.interp(sizes, self.sizes, self.hit_rates)
        return HitRateCurve(
            sizes, rates, self.total_requests, unit=self.unit
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HitRateCurve(points={len(self.sizes)}, "
            f"max_size={self.max_size:.0f}{self.unit}, "
            f"final_hit_rate={self.hit_rates[-1]:.3f})"
        )
