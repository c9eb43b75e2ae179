"""Static analysis for this repository's own invariants.

The replay discipline -- bit-identical tables at a fixed seed, an
event loop that never blocks, one source of truth for the packed
outcome-code layout -- is enforced at runtime by parity and property
tests, but those only fire *after* a hazard has corrupted a replay.
``repro.lint`` encodes the same invariants as named AST-level rules
that fail fast at review time instead:

* ``determinism`` -- no wall clock, OS entropy, process-global RNGs or
  unordered set iteration in the replay packages;
* ``async-blocking-call`` / ``unawaited-coroutine`` /
  ``deprecated-event-loop`` -- asyncio hygiene for :mod:`repro.serve`;
* ``packed-bit-overlap`` -- the outcome-code bit layout in
  :mod:`repro.cache.stats` stays overlap-free and singly defined;
* ``no-assert-in-src`` / ``unused-import`` -- library hygiene.

Run ``python -m repro.lint`` (or ``repro-lint``) from the repo root;
``--list-rules`` documents every rule and the suppression syntax.
"""

from repro.lint.engine import (
    FileContext,
    Finding,
    LintReport,
    Project,
    Rule,
    collect_files,
    run_rules,
)
from repro.lint.cli import main, run_lint
from repro.lint.rules import all_rules, rule_summaries, rules_by_name

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "Project",
    "Rule",
    "all_rules",
    "collect_files",
    "main",
    "rule_summaries",
    "rules_by_name",
    "run_lint",
    "run_rules",
]
