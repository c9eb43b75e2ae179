"""Per-rule fixture tests: every rule has firing and non-firing cases.

The ``firing`` fixture tree is a miniature repository where each file
violates specific rules; the ``clean`` tree mirrors it with compliant
code. Rules are asserted by (rule, path) pairs so the fixtures stay
readable, plus targeted line checks where the anchor matters.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import collect_files, rules_by_name, run_rules
from repro.lint.engine import REPLAY_PACKAGES

FIXTURES = Path(__file__).parent / "fixtures"


def lint_tree(tree: str, select=None):
    root = FIXTURES / tree
    files = collect_files([root / "src"], root, excludes=())
    registry = rules_by_name()
    rules = (
        [registry[name] for name in select]
        if select
        else list(registry.values())
    )
    return run_rules(files, rules, audit_suppressions=select is None)


def findings_for(tree: str, rule: str):
    report = lint_tree(tree, select=[rule])
    return [finding for finding in report.findings if finding.rule == rule]


# ---------------------------------------------------------------------------
# The clean tree: every rule, zero findings
# ---------------------------------------------------------------------------


def test_clean_tree_has_no_findings():
    report = lint_tree("clean")
    assert report.findings == []
    assert report.files_checked >= 4


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_determinism_fires_on_every_hazard():
    path = "src/repro/cache/nondeterministic.py"
    findings = [
        finding
        for finding in findings_for("firing", "determinism")
        if finding.path == path
    ]
    messages = "\n".join(finding.message for finding in findings)
    assert "time.time" in messages
    assert "datetime.datetime.now" in messages
    assert "os.urandom" in messages
    assert "random.random" in messages
    assert "random.Random() without an explicit seed" in messages
    assert "numpy.random.default_rng() without an explicit" in messages
    assert "numpy.random.shuffle" in messages
    assert "set literal" in messages
    assert "set(...)" in messages
    assert "frozenset(...)" in messages
    assert len(findings) == 10


def test_determinism_covers_the_cliffhanger_core():
    """``core/`` holds the engines and the climber's RNG: it is replay
    path too (as are ``allocation/`` and ``profiling/``)."""
    findings = [
        finding
        for finding in findings_for("firing", "determinism")
        if finding.path == "src/repro/core/unseeded_climber.py"
    ]
    messages = "\n".join(finding.message for finding in findings)
    assert "random.Random() without an explicit seed" in messages
    assert "time.time" in messages
    assert "random.choice" in messages
    assert len(findings) == 3
    assert set(REPLAY_PACKAGES) >= {"core", "allocation", "profiling"}


def test_determinism_ignores_non_replay_modules(tmp_path):
    # The same hazards outside the replay packages are allowed:
    # perfmodel and serve legitimately read wall clocks.
    source = FIXTURES / "firing/src/repro/cache/nondeterministic.py"
    target = tmp_path / "src/repro/perfmodel/clock.py"
    target.parent.mkdir(parents=True)
    target.write_text(source.read_text())
    files = collect_files([tmp_path / "src"], tmp_path, excludes=())
    report = run_rules(
        files, [rules_by_name()["determinism"]], audit_suppressions=False
    )
    assert report.findings == []


# ---------------------------------------------------------------------------
# asyncio hygiene
# ---------------------------------------------------------------------------


def test_async_blocking_call_fires():
    findings = [
        finding
        for finding in findings_for("firing", "async-blocking-call")
        if finding.path == "src/repro/serve/blocking.py"
    ]
    messages = sorted(finding.message for finding in findings)
    assert len(findings) == 3
    assert any("time.sleep" in message for message in messages)
    assert any("socket.create_connection" in message for message in messages)
    assert any("open()" in message for message in messages)


def test_async_blocking_call_follows_protocol_callbacks():
    """Under ``serve/`` the plain methods of an ``asyncio.Protocol`` /
    ``BufferedProtocol`` subclass (however the base was imported) are
    event-loop context too; other classes' methods are not."""
    findings = [
        finding
        for finding in findings_for("firing", "async-blocking-call")
        if finding.path == "src/repro/serve/blocking_protocol.py"
    ]
    assert sorted(
        (finding.line, finding.message.split(";")[0]) for finding in findings
    ) == [
        (11, "blocking call time.sleep inside asyncio.Protocol method "
             "'data_received'"),
        (15, "blocking file open() inside asyncio.Protocol method '_note'"),
        (21, "blocking call subprocess.run inside asyncio.Protocol method "
             "'connection_lost'"),
    ]


def test_protocol_callbacks_only_count_under_serve(tmp_path):
    source = FIXTURES / "firing/src/repro/serve/blocking_protocol.py"
    target = tmp_path / "src/repro/perfmodel/blocking_protocol.py"
    target.parent.mkdir(parents=True)
    target.write_text(source.read_text())
    files = collect_files([tmp_path / "src"], tmp_path, excludes=())
    report = run_rules(
        files,
        [rules_by_name()["async-blocking-call"]],
        audit_suppressions=False,
    )
    assert report.findings == []


def test_unawaited_coroutine_fires_for_self_and_module_calls():
    findings = findings_for("firing", "unawaited-coroutine")
    names = sorted(finding.message.split("'")[1] for finding in findings)
    assert names == ["flush", "main"]


def test_deprecated_event_loop_fires():
    findings = findings_for("firing", "deprecated-event-loop")
    assert len(findings) == 1
    assert "get_running_loop" in findings[0].message


# ---------------------------------------------------------------------------
# packed-bit-overlap
# ---------------------------------------------------------------------------


def test_packed_bit_overlap_catches_layout_collisions():
    findings = findings_for("firing", "packed-bit-overlap")
    stats = [
        finding
        for finding in findings
        if finding.path.endswith("cache/stats.py")
    ]
    messages = "\n".join(finding.message for finding in stats)
    assert "not a single flag bit" in messages
    assert "share bits" in messages
    assert "overlaps flag OUTCOME_DEAD" in messages
    assert "raise EVICTED_SHIFT" in messages
    assert len(stats) == 4


def test_packed_bit_overlap_catches_redefinitions():
    findings = findings_for("firing", "packed-bit-overlap")
    redefined = [
        finding
        for finding in findings
        if finding.path.endswith("cluster/redefined_bits.py")
    ]
    assert len(redefined) == 3
    messages = "\n".join(finding.message for finding in redefined)
    assert "re-assigned here" in messages  # imported then clobbered
    assert "import it instead" in messages  # fresh local layout names


# ---------------------------------------------------------------------------
# hygiene rules
# ---------------------------------------------------------------------------


def test_no_assert_in_src_fires():
    findings = findings_for("firing", "no-assert-in-src")
    assert len(findings) == 1
    assert findings[0].path == "src/repro/util.py"
    assert findings[0].line == 8


def test_no_assert_allows_tests(tmp_path):
    target = tmp_path / "tests" / "test_example.py"
    target.parent.mkdir(parents=True)
    target.write_text("def test_one():\n    assert 1 + 1 == 2\n")
    files = collect_files([tmp_path / "tests"], tmp_path, excludes=())
    report = run_rules(
        files, [rules_by_name()["no-assert-in-src"]], audit_suppressions=False
    )
    assert report.findings == []


def test_unused_import_fires_with_origin():
    findings = findings_for("firing", "unused-import")
    assert len(findings) == 1
    assert findings[0].path == "src/repro/util.py"
    assert "'json'" in findings[0].message


@pytest.mark.parametrize(
    "source",
    [
        # __all__ re-export counts as a use.
        'import json\n\n__all__ = ["json"]\n',
        # Quoted forward references inside annotations count as a use.
        "import asyncio\n\n\ndef make(x: \"asyncio.Future[int]\") -> None:\n"
        "    del x\n",
    ],
)
def test_unused_import_negative_cases(tmp_path, source):
    target = tmp_path / "src" / "module.py"
    target.parent.mkdir(parents=True)
    target.write_text(source)
    files = collect_files([tmp_path / "src"], tmp_path, excludes=())
    report = run_rules(
        files, [rules_by_name()["unused-import"]], audit_suppressions=False
    )
    assert report.findings == []


def test_unused_import_skips_package_init(tmp_path):
    target = tmp_path / "src" / "pkg" / "__init__.py"
    target.parent.mkdir(parents=True)
    target.write_text("from pkg.inner import thing\n")
    files = collect_files([tmp_path / "src"], tmp_path, excludes=())
    report = run_rules(
        files, [rules_by_name()["unused-import"]], audit_suppressions=False
    )
    assert report.findings == []


def test_docstring_mention_does_not_mark_import_used(tmp_path):
    target = tmp_path / "src" / "module.py"
    target.parent.mkdir(parents=True)
    target.write_text('"""Talks about random things."""\n\nimport random\n')
    files = collect_files([tmp_path / "src"], tmp_path, excludes=())
    report = run_rules(
        files, [rules_by_name()["unused-import"]], audit_suppressions=False
    )
    assert [finding.rule for finding in report.findings] == ["unused-import"]
