"""Small mathematical helpers shared across the library.

The centerpiece is :func:`concave_hull`, the least concave majorant of a set
of (x, y) points. Talus (and our cliff-scaling evaluation) interpolates hit
rates along this hull: any point on the hull between two anchor sizes is
achievable by partitioning a queue between those two sizes (paper
section 4.2, Figure 4).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def concave_hull(
    points: Sequence[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Return the least concave majorant (upper convex hull) of ``points``.

    The result is the subsequence of input points that form the upper hull,
    sorted by x. Evaluating the hull by linear interpolation between
    consecutive hull points gives, for every x, the highest y reachable by
    linear interpolation between any two input points -- exactly the hit
    rate Talus can synthesize by partitioning (paper section 4.2).

    Duplicated x values keep only the highest y. The input need not be
    sorted.
    """
    if not points:
        return []
    best_y: dict = {}
    for x, y in points:
        if x not in best_y or y > best_y[x]:
            best_y[x] = y
    ordered = sorted(best_y.items())
    if len(ordered) <= 2:
        return [(float(x), float(y)) for x, y in ordered]
    hull: List[Tuple[float, float]] = []
    for x, y in ordered:
        # Pop while the middle point of the last three lies on or below the
        # chord between its neighbours (i.e. it is not a strict upper
        # vertex). Cross-product test keeps the hull concave.
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append((float(x), float(y)))
    return hull

