"""Engine-level behaviour: file collection, module domains, ordering."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.lint import FileContext, collect_files, run_rules


def write_module(root, relpath, source):
    target = root / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


def test_collect_files_missing_path_raises(tmp_path):
    with pytest.raises(ConfigurationError):
        collect_files([tmp_path / "nope"])


def test_collect_files_syntax_error_raises(tmp_path):
    write_module(tmp_path, "src/bad.py", "def broken(:\n")
    with pytest.raises(ConfigurationError) as excinfo:
        collect_files([tmp_path / "src"])
    assert "bad.py" in str(excinfo.value)


def test_collect_files_honours_excludes(tmp_path):
    """A directory walk skips the lint fixtures; naming a fixture
    directory lints it."""
    write_module(tmp_path, "src/keep.py", "X = 1\n")
    fixtures = tmp_path / "tests" / "lint" / "fixtures"
    write_module(fixtures, "drop.py", "def broken(:\n")
    files = collect_files([tmp_path])
    assert [ctx.display_path for ctx in files] == [
        (tmp_path / "src" / "keep.py").as_posix()
    ]
    with pytest.raises(ConfigurationError, match="drop.py"):
        collect_files([fixtures])


def test_collect_files_accepts_single_file(tmp_path, monkeypatch):
    """Files are named as the paths were given: relative stays relative."""
    monkeypatch.chdir(tmp_path)
    write_module(tmp_path, "src/solo.py", "X = 1\n")
    files = collect_files([Path("src/solo.py")])
    assert [ctx.display_path for ctx in files] == ["src/solo.py"]


@pytest.mark.parametrize(
    "path, module",
    [
        ("src/repro/cache/stats.py", "cache.stats"),
        ("/home/src/repro/tests/src/repro/serve/server.py", "serve.server"),
        ("tests/cache/test_stats.py", None),
        ("src/other/module.py", None),
    ],
)
def test_repro_module_is_read_below_the_last_src_repro(path, module):
    assert FileContext(path, "X = 1\n").repro_module == module


def test_findings_are_sorted_and_deduplicated(tmp_path):
    write_module(
        tmp_path,
        "src/repro/util.py",
        "import time\n"
        "\n"
        "def f(x):\n"
        "    assert x\n"
        "    assert not x\n"
        "\n"
        "async def g():\n"
        "    time.sleep(1)\n",
    )
    findings = run_rules(collect_files([tmp_path / "src"]))
    assert [(finding.line, finding.rule) for finding in findings] == [
        (4, "no-assert-in-src"),
        (5, "no-assert-in-src"),
        (8, "async-blocking-call"),
    ]
    rendered = [finding.render() for finding in findings]
    assert rendered == sorted(rendered)
    assert len(set(findings)) == len(findings)
