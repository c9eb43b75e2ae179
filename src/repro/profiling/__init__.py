"""Stack distances and hit-rate curves.

The cache allocation problem (paper Eq. 1) is defined over hit-rate curves
``h_i(m_i)``. Each profiler is a function over a key column known before
it starts, returning one distance per access (``None`` for a cold one):

* :func:`repro.profiling.stack_distance.stack_distances` -- exact Mattson
  stack distances (unit or byte weights), O(N log N) over a Fenwick tree.
* :func:`repro.profiling.mimir.mimir_distances` -- the Mimir bucket
  estimator (O(N/B)) that Dynacache uses; deliberately coarse so the
  solver inherits the paper's estimation error on large/cliffy curves
  (section 2.1).
* :mod:`repro.profiling.hrc` -- :class:`HitRateCurve`: construction from
  distances, interpolation, concave hulls and cliff detection
  (Figures 1, 3 and 4).
"""

from repro.profiling.stack_distance import stack_distances
from repro.profiling.mimir import mimir_distances
from repro.profiling.hrc import HitRateCurve

__all__ = [
    "stack_distances",
    "mimir_distances",
    "HitRateCurve",
]
