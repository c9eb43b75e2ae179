"""Stack-distance profiling and hit-rate curves.

The cache allocation problem (paper Eq. 1) is defined over hit-rate curves
``h_i(m_i)``. This package provides:

* :mod:`repro.profiling.stack_distance` -- exact Mattson stack distances
  from an O(N log N) Fenwick-tree profiler.
* :mod:`repro.profiling.mimir` -- the Mimir bucket estimator (O(N/B)) that
  Dynacache uses; deliberately coarse so the solver inherits the paper's
  estimation error on large/cliffy curves (section 2.1).
* :mod:`repro.profiling.hrc` -- :class:`HitRateCurve`: construction from
  distances, interpolation, concave hulls and cliff detection
  (Figures 1, 3 and 4).
"""

from repro.profiling.stack_distance import StackDistanceProfiler
from repro.profiling.mimir import MimirProfiler
from repro.profiling.hrc import HitRateCurve

__all__ = [
    "StackDistanceProfiler",
    "MimirProfiler",
    "HitRateCurve",
]
