"""One ``sys.setprofile`` hook over the code under ``src/repro``.

:func:`src_hook` wraps a callback in a profile function that passes it
``(event, code)`` for the ``"call"`` and ``"return"`` events of frames
whose code lives under :data:`SRC` -- NumPy's Python wrappers, stdlib
internals and the tests themselves drop out. :mod:`tests.perf_counts`
counts calls per request with it and :mod:`tests.reachability` records
which functions an entry point runs.

This module imports nothing from ``repro``: the reachability audit
installs the hook at interpreter start-up, before the program under
audit imports anything.
"""

from __future__ import annotations

import os
from types import CodeType
from typing import Any, Callable

#: Where the program's code lives; every recorded frame's file starts
#: with it.
SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro", ""
)

Hook = Callable[[Any, str, Any], None]


def src_hook(callback: Callable[[str, CodeType], None]) -> Hook:
    """A ``sys.setprofile`` function calling ``callback(event, code)``
    for each ``"call"`` / ``"return"`` of a frame under :data:`SRC`."""

    def hook(frame: Any, event: str, arg: Any) -> None:
        if event == "call" or event == "return":
            code = frame.f_code
            if code.co_filename.startswith(SRC):
                callback(event, code)

    return hook

