"""Rule registry for ``repro.lint``.

Every rule is registered here by name; the CLI's ``--select``/
``--ignore`` and the ``# repro-lint: ignore[...]`` comments use these
names. ``unused-suppression`` is implemented by the engine's
suppression audit rather than a Rule subclass, but is listed so
``--list-rules`` documents it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.lint.engine import Rule
from repro.lint.rules.asyncio_rules import (
    AsyncBlockingCallRule,
    DeprecatedEventLoopRule,
    UnawaitedCoroutineRule,
)
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.hygiene import NoAssertInSrcRule, UnusedImportRule
from repro.lint.rules.packed_bits import PackedBitOverlapRule

#: Engine-level pseudo-rule: stale ``# repro-lint: ignore[...]`` comments.
UNUSED_SUPPRESSION = "unused-suppression"
UNUSED_SUPPRESSION_SUMMARY = (
    "every inline suppression must silence a real finding; stale ones "
    "are findings themselves (engine-level audit)"
)


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in listing order."""
    return [
        DeterminismRule(),
        AsyncBlockingCallRule(),
        UnawaitedCoroutineRule(),
        DeprecatedEventLoopRule(),
        PackedBitOverlapRule(),
        NoAssertInSrcRule(),
        UnusedImportRule(),
    ]


def rules_by_name() -> Dict[str, Rule]:
    return {rule.name: rule for rule in all_rules()}


def rule_summaries() -> Dict[str, str]:
    """Name -> one-line summary, including the engine-level audit."""
    summaries = {rule.name: rule.summary for rule in all_rules()}
    summaries[UNUSED_SUPPRESSION] = UNUSED_SUPPRESSION_SUMMARY
    return summaries
