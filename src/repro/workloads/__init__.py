"""Workload generation and trace handling.

The Memcachier trace the paper analyzes is proprietary, so this package
provides the synthetic equivalents (see README, "Substitutions",
item 1):

* :mod:`repro.workloads.trace` -- the request record of the object API
  (:mod:`repro.workloads.compiled` holds the one on-disk format).
* :mod:`repro.workloads.zipf` -- fast Zipf(ian) key popularity sampling.
* :mod:`repro.workloads.generators` -- composable request-stream
  generators, built as columns and merged by time into a compiled trace:
  Zipf working sets, sequential scans (which carve performance cliffs
  into LRU hit-rate curves), phase changes and mixtures.
* :mod:`repro.workloads.sizes` -- per-key deterministic item-size models.
* :mod:`repro.workloads.memcachier` -- the synthetic 20-application
  "Memcachier-like" trace with per-app profiles tuned to echo the paper's
  hit-rate landscape (including the six cliff applications).
* :mod:`repro.workloads.facebook` -- Facebook ETC-style key/value/op
  distributions (Atikoglu et al., SIGMETRICS 2012) used by the
  micro-benchmarks, standing in for the mutilate load generator.
"""

from repro.workloads.trace import Request
from repro.workloads.zipf import ZipfSampler

__all__ = [
    "Request",
    "ZipfSampler",
]
