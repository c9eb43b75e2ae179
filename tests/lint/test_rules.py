"""Per-rule fixture tests: every rule has firing and non-firing cases.

The ``firing`` fixture tree is a miniature repository where each file
violates specific rules; the ``clean`` tree mirrors it with compliant
code. Rules are asserted by (rule, path) pairs so the fixtures stay
readable, plus targeted line checks where the anchor matters. A dropped
``await`` is not a lint rule: the pytest configuration turns it into a
failing test, and one test here pins that. Nor is a packed-layout
collision: a unit test over the real constants checks that, and two
tests here pin that its checks still catch what the rule caught.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.lint import collect_files, run_rules
from repro.lint.engine import REPLAY_PACKAGES
from tests.cache.test_stats import layout_problems, layout_redefinitions

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_tree(tree: str, monkeypatch):
    """Findings for one fixture tree, paths relative to its root."""
    monkeypatch.chdir(FIXTURES / tree)
    return run_rules(collect_files([Path("src")]))


def findings_for(tree: str, rule: str, monkeypatch, path=None):
    return [
        finding
        for finding in lint_tree(tree, monkeypatch)
        if finding.rule == rule and (path is None or finding.path == path)
    ]


def lint_copy(tmp_path, fixture: str, relpath: str):
    """Findings for one firing fixture copied to ``relpath``."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True)
    target.write_text((FIXTURES / "firing" / fixture).read_text())
    return run_rules(collect_files([tmp_path / "src"]))


# ---------------------------------------------------------------------------
# The clean tree: every rule, zero findings
# ---------------------------------------------------------------------------


def test_clean_tree_has_no_findings(monkeypatch):
    assert lint_tree("clean", monkeypatch) == []
    assert len(collect_files([Path("src")])) >= 4


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_determinism_fires_on_every_hazard(monkeypatch):
    findings = findings_for(
        "firing", "determinism", monkeypatch,
        path="src/repro/cache/nondeterministic.py",
    )
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


def test_determinism_covers_the_cliffhanger_core(monkeypatch):
    """``core/`` holds the engines and the climber's RNG: it is replay
    path too (as are ``allocation/`` and ``profiling/``)."""
    findings = findings_for(
        "firing", "determinism", monkeypatch,
        path="src/repro/core/unseeded_climber.py",
    )
    messages = "\n".join(finding.message for finding in findings)
    assert "random.Random() without an explicit seed" in messages
    assert "time.time" in messages
    assert "random.choice" in messages
    assert len(findings) == 3
    assert set(REPLAY_PACKAGES) >= {"core", "allocation", "profiling"}


def test_determinism_ignores_non_replay_modules(tmp_path):
    # The same hazards outside the replay packages are allowed:
    # perfmodel and serve legitimately read wall clocks.
    assert lint_copy(
        tmp_path,
        "src/repro/cache/nondeterministic.py",
        "src/repro/perfmodel/clock.py",
    ) == []


# ---------------------------------------------------------------------------
# asyncio hygiene
# ---------------------------------------------------------------------------


def test_async_blocking_call_fires(monkeypatch):
    findings = findings_for(
        "firing", "async-blocking-call", monkeypatch,
        path="src/repro/serve/blocking.py",
    )
    messages = sorted(finding.message for finding in findings)
    assert len(findings) == 3
    assert any("time.sleep" in message for message in messages)
    assert any("socket.create_connection" in message for message in messages)
    assert any("open()" in message for message in messages)


def test_async_blocking_call_follows_protocol_callbacks(monkeypatch):
    """Under ``serve/`` the plain methods of an ``asyncio.Protocol`` /
    ``BufferedProtocol`` subclass (however the base was imported) are
    event-loop context too; other classes' methods are not."""
    findings = findings_for(
        "firing", "async-blocking-call", monkeypatch,
        path="src/repro/serve/blocking_protocol.py",
    )
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
    assert lint_copy(
        tmp_path,
        "src/repro/serve/blocking_protocol.py",
        "src/repro/perfmodel/blocking_protocol.py",
    ) == []


DROPPED_AWAITS = """
import asyncio


class Worker:
    async def flush(self):
        pass

    async def run(self):
        self.flush()
        await asyncio.sleep(0)


async def main():
    pass


def test_self_call():
    asyncio.run(Worker().run())


def test_module_call():
    main()
"""


def test_unawaited_coroutine_fires_for_self_and_module_calls(tmp_path):
    """A coroutine called without ``await`` fails its test under the
    repo's pytest configuration (``filterwarnings`` in pyproject.toml),
    which is what replaced the ``unawaited-coroutine`` lint rule."""
    (tmp_path / "test_dropped_awaits.py").write_text(DROPPED_AWAITS)

    def outcome(*options):
        command = [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(REPO_ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), *options, str(tmp_path),
        ]
        result = subprocess.run(
            command, capture_output=True, text=True, timeout=120
        )
        return result.stdout.strip().splitlines()[-1]

    assert outcome().startswith("2 failed")
    assert outcome("-o", "filterwarnings=").startswith("2 passed")


def test_packed_bit_overlap_catches_layout_collisions():
    """The ``packed-bit-overlap`` rule is now a unit test over the real
    constants (tests/cache/test_stats.py); its checks still catch each
    collision the rule caught."""
    assert layout_problems({
        "OUTCOME_HIT": 1,
        "OUTCOME_SHADOW_HIT": 3,  # not a single bit, and overlaps HIT
        "OUTCOME_DEAD": 1 << 4,
        "CLASS_SHIFT": 4,  # the class field lands on OUTCOME_DEAD
        "CLASS_MASK": 0x7,
        "EVICTED_SHIFT": 5,  # the eviction count overlaps the class field
    }) == [
        "OUTCOME_SHADOW_HIT is not a single flag bit",
        "the class field overlaps OUTCOME_DEAD",
        "OUTCOME_HIT and OUTCOME_SHADOW_HIT share bits",
        "EVICTED_SHIFT is below the flags or class field",
    ]


def test_packed_bit_overlap_catches_redefinitions(tmp_path):
    home = tmp_path / "cache" / "stats.py"
    home.parent.mkdir()
    home.write_text("OUTCOME_DEAD = 1 << 9\nEVICTED_SHIFT = 10\n")
    (tmp_path / "redefined_bits.py").write_text(
        "from repro.cache.stats import OUTCOME_DEAD\n\n"
        "OUTCOME_LOCAL = 1 << 3\n"
        "OUTCOME_DEAD = 1 << 6\n"
        "EVICTED_SHIFT: int = 12\n"
    )
    assert layout_redefinitions(tmp_path, home) == [
        ("redefined_bits.py", "OUTCOME_LOCAL"),
        ("redefined_bits.py", "OUTCOME_DEAD"),
        ("redefined_bits.py", "EVICTED_SHIFT"),
    ]


def test_deprecated_event_loop_fires(monkeypatch):
    findings = findings_for("firing", "deprecated-event-loop", monkeypatch)
    assert [(finding.path, finding.line) for finding in findings] == [
        ("src/repro/serve/blocking.py", 22)
    ]
    assert "get_running_loop" in findings[0].message


# ---------------------------------------------------------------------------
# no-assert-in-src
# ---------------------------------------------------------------------------


def test_no_assert_in_src_fires(monkeypatch):
    findings = findings_for("firing", "no-assert-in-src", monkeypatch)
    assert len(findings) == 1
    assert findings[0].path == "src/repro/util.py"
    assert findings[0].line == 8


def test_no_assert_allows_tests(tmp_path):
    target = tmp_path / "tests" / "test_example.py"
    target.parent.mkdir(parents=True)
    target.write_text("def test_one():\n    assert 1 + 1 == 2\n")
    assert run_rules(collect_files([tmp_path / "tests"])) == []
