"""Cliffhanger: the paper's primary contribution.

* :mod:`repro.core.hill_climbing` -- :class:`HillClimber`: the
  shadow-queue hill-climbing resource allocator (Algorithm 1).
* :mod:`repro.core.managed` -- :class:`ShadowedQueue`: an eviction policy
  with a key-only shadow extension (the substrate of Algorithm 1), and
  the queue protocol it shares with the partitioned queue.
* :mod:`repro.core.cliff_scaling` -- :class:`CliffhangerQueue`: a
  partitioned queue with pointer search that scales performance cliffs
  (Algorithms 2 and 3) and carries the combined structure of Figure 5.
* :mod:`repro.core.engine` -- :class:`ClimbingEngine`, the one engine
  skeleton wiring these into the cache server, and its two queue
  factories: :class:`HillClimbEngine` (shadowed queues: Algorithm 1
  only, any policy) and :class:`CliffhangerEngine` (partitioned queues:
  the full combined system of section 4.3).
* :mod:`repro.core.crossapp` -- hill climbing *across* applications on a
  shared server (section 3.3).
"""

from repro.core.managed import ShadowedQueue
from repro.core.hill_climbing import HillClimber
from repro.core.cliff_scaling import CliffConfig, CliffhangerQueue
from repro.core.engine import CliffhangerEngine, HillClimbEngine
from repro.core.crossapp import CrossAppHillClimber

__all__ = [
    "ShadowedQueue",
    "HillClimber",
    "CliffConfig",
    "CliffhangerQueue",
    "CliffhangerEngine",
    "HillClimbEngine",
    "CrossAppHillClimber",
]
