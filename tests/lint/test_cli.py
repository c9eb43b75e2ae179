"""CLI behaviour: positional paths only, exit codes 0 / 1 / 2."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.cli import main
from repro.lint.rules import RULES

FIXTURES = Path(__file__).parent / "fixtures"

#: The rules that guard what no test can (see ``repro.lint.rules``).
REQUIRED_RULES = (
    "determinism",
    "async-blocking-call",
    "deprecated-event-loop",
    "no-assert-in-src",
)


def test_list_rules_names_every_rule(capsys):
    """``--help`` is where the rules are listed."""
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for rule in REQUIRED_RULES:
        assert rule in out


def test_rule_summaries_cover_required_rules():
    assert tuple(RULES) == REQUIRED_RULES
    for rule in RULES.values():
        assert rule.__doc__ and rule.__doc__.strip()


def test_clean_tree_exits_zero(capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES / "clean")
    assert main(["src"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_firing_tree_exits_one_with_tagged_findings(capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES / "firing")
    assert main(["src"]) == 1
    out = capsys.readouterr().out
    # file:line: [rule] message
    assert "src/repro/cache/nondeterministic.py:12: [determinism]" in out
    assert "src/repro/serve/blocking.py:13: [async-blocking-call]" in out
    assert "src/repro/serve/blocking.py:22: [deprecated-event-loop]" in out
    assert "src/repro/util.py:8: [no-assert-in-src]" in out
    assert "21 finding(s) in 5 file(s)" in out


def test_missing_path_exits_two(capsys):
    assert main(["no/such/dir"]) == 2
    err = capsys.readouterr().err
    assert err == "repro.lint: no such file or directory: no/such/dir\n"


def test_unparsable_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    assert main([str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro.lint: cannot parse ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flag",
    ["--strict", "--select=determinism", "--ignore=determinism",
     "--format=json", "--list-rules", "--root=."],
)
def test_flags_exit_two(flag, capsys):
    """Positional paths are the only input."""
    with pytest.raises(SystemExit) as excinfo:
        main([flag])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
