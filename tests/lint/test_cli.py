"""CLI behaviour: exit codes, rule listing, output formats."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.cli import main
from repro.lint.rules import rule_summaries

FIXTURES = Path(__file__).parent / "fixtures"

#: Rules ISSUE-level consumers rely on by name.
REQUIRED_RULES = (
    "determinism",
    "async-blocking-call",
    "unawaited-coroutine",
    "deprecated-event-loop",
    "packed-bit-overlap",
    "no-assert-in-src",
    "unused-import",
)


def run_cli(*argv):
    return main(list(argv))


def test_list_rules_names_every_rule(capsys):
    assert run_cli("--list-rules") == 0
    out = capsys.readouterr().out
    for rule in REQUIRED_RULES:
        assert rule in out
    assert "unused-suppression" in out
    assert "file-ignore[" in out


def test_rule_summaries_cover_required_rules():
    summaries = rule_summaries()
    for rule in REQUIRED_RULES:
        assert rule in summaries
        assert summaries[rule]


def test_clean_tree_exits_zero(capsys):
    code = run_cli("src", "--root", str(FIXTURES / "clean"))
    assert code == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_firing_tree_exits_one_with_tagged_findings(capsys):
    code = run_cli("src", "--root", str(FIXTURES / "firing"))
    assert code == 1
    out = capsys.readouterr().out
    # file:line: [rule] message
    assert "src/repro/cache/nondeterministic.py" in out
    assert "[determinism]" in out
    assert "[packed-bit-overlap]" in out
    assert "[no-assert-in-src]" in out


def test_select_narrows_to_one_rule(capsys):
    code = run_cli(
        "src",
        "--root",
        str(FIXTURES / "firing"),
        "--select",
        "no-assert-in-src",
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "[no-assert-in-src]" in out
    assert "[determinism]" not in out


def test_ignore_drops_rules(capsys):
    code = run_cli(
        "src",
        "--root",
        str(FIXTURES / "firing"),
        "--ignore",
        ",".join(REQUIRED_RULES[:-1]),
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "[determinism]" not in out
    assert "[unused-import]" in out


def test_unknown_rule_exits_two(capsys):
    assert run_cli("src", "--select", "bogus-rule") == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err
    assert "bogus-rule" in err


def test_missing_path_exits_two(capsys):
    assert run_cli("no/such/dir") == 2
    assert "repro-lint:" in capsys.readouterr().err


def test_json_format_is_parseable(capsys):
    code = run_cli(
        "src", "--root", str(FIXTURES / "firing"), "--format", "json"
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] >= 5
    rules = {finding["rule"] for finding in payload["findings"]}
    assert "determinism" in rules
    assert all(
        {"path", "line", "rule", "message"} <= set(finding)
        for finding in payload["findings"]
    )


def test_strict_promotes_stale_suppressions(tmp_path, capsys):
    module = tmp_path / "src" / "repro" / "util.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "def f():\n"
        "    return 1  # repro-lint: ignore[determinism]\n"
    )
    assert run_cli("src", "--root", str(tmp_path)) == 0
    assert "[unused-suppression]" in capsys.readouterr().out
    assert run_cli("src", "--root", str(tmp_path), "--strict") == 1
