"""Static analysis for the hazards this repository's tests cannot see.

Every table is replayed bit-identically at a fixed seed, and the live
server runs one event loop. Most ways to break either show up in a
test; ``repro.lint`` keeps the four that do not:

* ``determinism`` -- no wall clock, OS entropy, process-global or
  unseeded RNGs, or iteration over set displays in the replay packages;
* ``async-blocking-call`` -- no blocking call on the event loop (an
  ``async def``, or a method of an ``asyncio.Protocol`` under
  :mod:`repro.serve`);
* ``deprecated-event-loop`` -- no ``asyncio.get_event_loop()``;
* ``no-assert-in-src`` -- no ``assert`` in library code.

Run ``python -m repro.lint`` from the repo root (default paths ``src
tests benchmarks``). The packed outcome-bit layout is held by
``tests/cache/test_stats.py``, unused imports by ruff (``F401``) and
unawaited coroutines by pytest's ``filterwarnings`` in
``pyproject.toml``.
"""

from repro.lint.cli import main
from repro.lint.engine import FileContext, Finding, collect_files
from repro.lint.rules import RULES, run_rules

__all__ = [
    "FileContext",
    "Finding",
    "RULES",
    "collect_files",
    "main",
    "run_rules",
]
