"""Cliffhanger reproduction: scaling performance cliffs in web memory caches.

A from-scratch Python implementation of Cliffhanger (Cidon, Eisenman,
Alizadeh, Katti -- NSDI 2016) together with every substrate the paper
depends on: a Memcached-style multi-tenant slab cache simulator, eviction
policies, stack-distance profilers, hit-rate curves, the Dynacache solver,
Talus and LookAhead baselines, synthetic Memcachier-like workloads and a
benchmark harness regenerating the paper's tables and figures.

Quickstart::

    from repro import (
        CacheServer, CliffhangerEngine, SlabGeometry, Request
    )

    geometry = SlabGeometry.default()
    server = CacheServer(geometry)
    server.add_app(CliffhangerEngine("app", 64 << 20, geometry))
    server.process(Request(0.0, "app", "user:42", "get", value_size=512))
    print(server.stats.total.hit_rate())

See README.md for the architecture overview and ``repro.experiments`` for
the paper's evaluation.
"""

from repro.cache.engines import FirstComeFirstServeEngine, PlannedEngine
from repro.cache.log_structured import GlobalLRUEngine
from repro.cache.server import CacheServer
from repro.cache.slabs import SlabGeometry
from repro.core.cliff_scaling import CliffConfig, CliffhangerQueue
from repro.core.crossapp import CrossAppHillClimber
from repro.core.engine import CliffhangerEngine, HillClimbEngine
from repro.core.hill_climbing import HillClimber
from repro.core.managed import ShadowedQueue
from repro.profiling.hrc import HitRateCurve
from repro.profiling.mimir import MimirProfiler
from repro.profiling.stack_distance import StackDistanceProfiler
from repro.workloads.trace import Request

__version__ = "1.0.0"

__all__ = [
    "CacheServer",
    "SlabGeometry",
    "FirstComeFirstServeEngine",
    "PlannedEngine",
    "GlobalLRUEngine",
    "CliffConfig",
    "CliffhangerQueue",
    "CliffhangerEngine",
    "HillClimbEngine",
    "HillClimber",
    "ShadowedQueue",
    "CrossAppHillClimber",
    "HitRateCurve",
    "MimirProfiler",
    "StackDistanceProfiler",
    "Request",
    "__version__",
]
