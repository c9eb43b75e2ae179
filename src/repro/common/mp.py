"""Explicit multiprocessing start-method policy for worker pools.

Every process pool in the repo (:class:`repro.sim.sweep.Sweep`, the
cluster's parallel replay workers) must pin its start method explicitly
instead of inheriting the platform default: an implicit default means
worker behavior silently differs between Linux (fork) and macOS/Windows
(spawn), and fork-only code paths rot undetected. This module is the
single place that policy lives.

The default is ``fork`` where the platform offers it: workers inherit
compiled traces, their own start-up arguments, and the warmed trace
cache for free, and process startup is milliseconds instead of a fresh interpreter
plus numpy import per worker. ``spawn`` is always available as an
explicit override -- the parity tests exercise it so nothing quietly
becomes fork-only.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.context import BaseContext
from typing import Optional

from repro.common.errors import ConfigurationError

#: The start method pools use when the caller does not override one:
#: ``fork`` where available (Linux), else ``spawn``.
DEFAULT_START_METHOD: str = (
    "fork"
    if "fork" in multiprocessing.get_all_start_methods()
    else "spawn"
)


def get_mp_context(start_method: Optional[str] = None) -> BaseContext:
    """An explicit multiprocessing context, never the implicit default.

    ``start_method=None`` resolves to :data:`DEFAULT_START_METHOD`;
    anything else must be a method the platform supports.
    """
    method = start_method or DEFAULT_START_METHOD
    supported = multiprocessing.get_all_start_methods()
    if method not in supported:
        raise ConfigurationError(
            f"start method {method!r} not supported here; "
            f"available: {', '.join(supported)}"
        )
    return multiprocessing.get_context(method)
