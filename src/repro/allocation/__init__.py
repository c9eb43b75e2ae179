"""Cache allocation algorithms that work from hit-rate curves.

These are the paper's baselines:

* :mod:`repro.allocation.dynacache` -- the Dynacache solver (Eq. 1) and
  its plan type: greedy marginal-utility allocation that *assumes
  concave curves*, fed by Mimir-estimated stack distances. Inherits both
  failure modes the paper describes (cliff blindness and estimation
  error).
* :mod:`repro.allocation.talus` -- Talus partition planning with oracle
  curve knowledge (the non-incremental ancestor of cliff scaling).

Cliffhanger itself is *not* here: it never materializes hit-rate curves
and lives in :mod:`repro.core`.
"""

from repro.allocation.dynacache import AllocationPlan, DynacacheSolver
from repro.allocation.talus import TalusPartition, plan_talus_partition

__all__ = [
    "AllocationPlan",
    "DynacacheSolver",
    "TalusPartition",
    "plan_talus_partition",
]
