"""Self-check: the shipped tree must lint clean.

This is the tier-1 guarantee behind the CI ``python -m repro.lint``
gate: any determinism or event-loop hazard, or an assert in library
code, introduced into ``src``/``tests``/``benchmarks`` fails this test
locally before it ever reaches CI.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import collect_files, run_rules
from repro.lint.cli import DEFAULT_PATHS

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_shipped_tree_is_clean():
    files = collect_files([REPO_ROOT / path for path in DEFAULT_PATHS])
    findings = run_rules(files)
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"repro.lint findings:\n{rendered}"
    # Sanity: the walk actually covered the repository, not an empty dir.
    assert len(files) > 100
