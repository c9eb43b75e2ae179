"""Every ``tests/<path>.py`` the sources, README or examples cite exists,
and so does every ``::<name>`` after it (a class, function or assignment,
``::Class::method`` looked up inside the class). The docs stay short and
state the present: README and the verify skill keep to their line limits,
and they, the sources, the examples and the call-budget gate quote no
before / after figure."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = re.compile(r"tests/[\w/]+\.py((?:::\w+)*)")


def cited():
    """``(citing file, reference)`` for every reference in the tree."""
    paths = [ROOT / "README.md", *sorted((ROOT / "src").rglob("*.py"))]
    paths += sorted(p for p in (ROOT / "examples").rglob("*") if p.is_file())
    for path in paths:
        for match in REFERENCE.finditer(path.read_text()):
            yield path.relative_to(ROOT), match


def names(body):
    """The names a module or class body defines."""
    for node in body:
        if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def resolves(reference) -> bool:
    path = ROOT / reference.group(0).split("::")[0]
    if not path.is_file():
        return False
    node = ast.parse(path.read_text())
    for name in reference.group(1).split("::")[1:]:
        node = dict(names(getattr(node, "body", []))).get(name)
        if node is None:
            return False
    return True


def test_every_cited_test_path_and_name_exists():
    references = list(cited())
    assert any("::" in match.group(0) for _, match in references)
    broken = [
        f"{path}: {match.group(0)}"
        for path, match in references
        if not resolves(match)
    ]
    assert broken == []


SKILL = ".claude/skills/verify/SKILL.md"
#: Each doc's line limit: one screen per subsystem, not a changelog.
LINE_LIMITS = {"README.md": 400, SKILL: 200}
#: A figure beside "before" / "while", after "was" / "were" / "made", or
#: on either side of an arrow: history, which CHANGES.md keeps.
HISTORY = re.compile(
    r"(?:\d+\.\d+|\d[\d,]*k)\s+(?:before|while)\b"
    r"|\b(?:was|were)\s+\d+\.\d"
    r"|\bmade\s+\d"
    r"|\d\s*(?:→|->)\s*\d"
)
#: Besides the docs, sources and examples: the call-budget gate, whose
#: figures are the kind a history comment collects.
CHECKED_TESTS = ("tests/sim/test_call_budget.py",)


def test_docs_state_the_present():
    """README and the verify skill fit their limits, and no doc, source,
    example or call-budget line quotes a superseded figure (cite the
    gate or ledger metric that records it instead)."""
    lengths = {
        name: len((ROOT / name).read_text().splitlines())
        for name in LINE_LIMITS
    }
    too_long = {
        name: lines
        for name, lines in lengths.items()
        if lines > LINE_LIMITS[name]
    }
    paths = [ROOT / name for name in LINE_LIMITS]
    paths += sorted((ROOT / "src").rglob("*.py"))
    paths += sorted(p for p in (ROOT / "examples").rglob("*") if p.is_file())
    paths += [ROOT / name for name in CHECKED_TESTS]
    history = [
        f"{path.relative_to(ROOT)}:{number}: {match.group(0)}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        for match in HISTORY.finditer(line)
    ]
    assert (too_long, history) == ({}, [])


def test_every_test_path_the_verify_skill_cites_exists():
    text = (ROOT / SKILL).read_text()
    broken = [m.group(0) for m in REFERENCE.finditer(text) if not resolves(m)]
    assert broken == []
