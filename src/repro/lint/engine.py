"""Core of the ``repro.lint`` static-analysis pass.

The engine walks Python sources, parses each file once, classifies it
into the *domains* the rules care about (replay path, serving layer,
library source vs. test code), and dispatches two kinds of rules:

* **file rules** see one :class:`FileContext` at a time;
* **project rules** see the whole :class:`Project` (cross-file
  invariants such as the packed outcome-bit layout).

Findings can be silenced per line with ``# repro-lint: ignore[rule]``
(comma-separate several rule names) or per file with a standalone
``# repro-lint: file-ignore[rule]`` line. Every inline suppression must
actually silence something: stale ones are reported by the engine as
``unused-suppression`` findings so the allowlist cannot rot.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ConfigurationError

#: Path fragments (posix form) that are never linted. The lint test
#: fixtures deliberately violate the rules; caches hold no source.
DEFAULT_EXCLUDES: Tuple[str, ...] = (
    "__pycache__",
    ".git",
    "tests/lint/fixtures",
)

#: Packages whose replay results must be bit-identical across runs at a
#: fixed seed; the determinism rule only applies inside these. ``core``
#: holds the Cliffhanger engines and the climber's RNG; ``allocation``
#: and ``profiling`` feed the solver plans the tables replay.
REPLAY_PACKAGES: Tuple[str, ...] = (
    "cache", "cluster", "workloads", "sim", "core", "allocation", "profiling",
)

_INLINE_RE = re.compile(r"#\s*repro-lint:\s*ignore\[([A-Za-z0-9_,\s-]+)\]")
_FILE_RE = re.compile(r"^\s*#\s*repro-lint:\s*file-ignore\[([A-Za-z0-9_,\s-]+)\]\s*$")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source line."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class FileContext:
    """One parsed source file plus the metadata rules dispatch on."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=display_path)
        parts = Path(display_path).parts
        self.parts = parts
        self.is_test = bool(parts) and parts[0] in ("tests", "benchmarks")
        self.is_src = "src" in parts
        #: Dotted module path below ``repro`` (e.g. ``cache.stats``),
        #: or None for files outside ``src/repro``.
        self.repro_module: Optional[str] = None
        if "repro" in parts and self.is_src:
            below = parts[parts.index("repro") + 1 :]
            if below:
                self.repro_module = ".".join(below)[: -len(".py")] or None
        self.inline_ignores = self._parse_inline_ignores()
        self.file_ignores = self._parse_file_ignores()
        self._import_paths: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------
    # Domain predicates
    # ------------------------------------------------------------------

    @property
    def is_replay_path(self) -> bool:
        """True for modules whose replays must be bit-reproducible."""
        module = self.repro_module
        if module is None:
            return False
        return module.split(".")[0] in REPLAY_PACKAGES

    # ------------------------------------------------------------------
    # Suppression comments
    # ------------------------------------------------------------------

    def _comment_tokens(self) -> List[Tuple[int, int, str]]:
        """(line, column, text) for every real comment token; string
        literals that merely *mention* the syntax don't count."""
        comments: List[Tuple[int, int, str]] = []
        try:
            tokens = tokenize.generate_tokens(
                io.StringIO(self.source).readline
            )
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    comments.append(
                        (token.start[0], token.start[1], token.string)
                    )
        except tokenize.TokenError:  # pragma: no cover - ast parsed already
            pass
        return comments

    def _standalone_comment(self, lineno: int, column: int) -> bool:
        line = self.lines[lineno - 1] if lineno <= len(self.lines) else ""
        return not line[:column].strip()

    def _parse_inline_ignores(self) -> Dict[int, Set[str]]:
        ignores: Dict[int, Set[str]] = {}
        for lineno, column, comment in self._comment_tokens():
            if _FILE_RE.match(comment) and self._standalone_comment(
                lineno, column
            ):
                continue
            match = _INLINE_RE.search(comment)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")}
                ignores.setdefault(lineno, set()).update(
                    rule for rule in rules if rule
                )
        return ignores

    def _parse_file_ignores(self) -> Dict[str, int]:
        """Rule name -> line of the first file-ignore comment naming it."""
        ignores: Dict[str, int] = {}
        for lineno, column, comment in self._comment_tokens():
            match = _FILE_RE.match(comment)
            if match and self._standalone_comment(lineno, column):
                for part in match.group(1).split(","):
                    name = part.strip()
                    if name:
                        ignores.setdefault(name, lineno)
        return ignores

    # ------------------------------------------------------------------
    # Import resolution (shared by several rules)
    # ------------------------------------------------------------------

    @property
    def import_paths(self) -> Dict[str, str]:
        """Local name -> dotted origin, from this file's import statements.

        ``import numpy as np`` maps ``np`` to ``numpy``;
        ``from time import time`` maps ``time`` to ``time.time``.
        """
        if self._import_paths is None:
            mapping: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        origin = alias.name if alias.asname else local
                        mapping[local] = origin
                elif isinstance(node, ast.ImportFrom):
                    if node.level or node.module is None:
                        continue
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        local = alias.asname or alias.name
                        mapping[local] = f"{node.module}.{alias.name}"
            self._import_paths = mapping
        return self._import_paths

    def resolve_call_path(self, func: ast.AST) -> Optional[str]:
        """Dotted origin of a callee expression, or None if unresolvable.

        ``np.random.shuffle`` resolves to ``numpy.random.shuffle`` when
        ``np`` was imported as numpy; a bare name resolves through the
        from-import map (falling back to the name itself for builtins).
        """
        chain: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.import_paths.get(node.id, node.id)
        chain.append(root)
        return ".".join(reversed(chain))


class Project:
    """All linted files, for rules that check cross-file invariants."""

    def __init__(self, files: Sequence[FileContext]) -> None:
        self.files = list(files)

    def find(self, suffix: str) -> Optional[FileContext]:
        """The file whose display path ends with ``suffix`` (posix)."""
        for ctx in self.files:
            if ctx.display_path.endswith(suffix):
                return ctx
        return None


class Rule:
    """Base class: subclasses set ``name``/``summary`` and override one
    of :meth:`check_file` or :meth:`check_project`."""

    name = "abstract"
    summary = ""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_checked: int
    suppressed: int = 0
    unused_suppressions: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def _excluded(display_path: str, excludes: Sequence[str]) -> bool:
    return any(fragment in display_path for fragment in excludes)


def collect_files(
    paths: Sequence[Path],
    root: Path,
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
) -> List[FileContext]:
    """Parse every ``.py`` file under ``paths`` into a FileContext.

    ``root`` anchors display paths (findings print repo-relative posix
    paths). Unreadable or syntactically invalid files raise
    :class:`ConfigurationError` -- un-parseable source is itself a
    finding-worthy state, but nothing else can be checked.
    """
    contexts: List[FileContext] = []
    for base in paths:
        if base.is_file():
            candidates = [base]
        elif base.is_dir():
            candidates = sorted(base.rglob("*.py"))
        else:
            raise ConfigurationError(f"no such file or directory: {base}")
        for candidate in candidates:
            try:
                display = candidate.resolve().relative_to(root.resolve())
                display_path = display.as_posix()
            except ValueError:
                display_path = candidate.as_posix()
            if _excluded(display_path, excludes):
                continue
            source = candidate.read_text(encoding="utf-8")
            try:
                contexts.append(FileContext(candidate, display_path, source))
            except SyntaxError as exc:
                raise ConfigurationError(
                    f"cannot parse {display_path}: {exc}"
                ) from None
    return contexts


def run_rules(
    files: Sequence[FileContext],
    rules: Sequence[Rule],
    audit_suppressions: bool = True,
) -> LintReport:
    """Run ``rules`` over ``files``; apply and audit suppressions.

    ``audit_suppressions`` only reports stale inline ignores when every
    rule ran (a partial ``--select`` run cannot tell stale from
    not-yet-checked).
    """
    project = Project(files)
    by_file = {ctx.display_path: ctx for ctx in files}
    raw: List[Finding] = []
    for rule in rules:
        for ctx in files:
            raw.extend(rule.check_file(ctx))
        raw.extend(rule.check_project(project))

    findings: List[Finding] = []
    suppressed = 0
    used: Dict[Tuple[str, int], Set[str]] = {}
    file_used: Dict[str, Set[str]] = {}
    for finding in raw:
        ctx = by_file.get(finding.path)
        if ctx is not None:
            if finding.rule in ctx.file_ignores:
                suppressed += 1
                file_used.setdefault(finding.path, set()).add(finding.rule)
                continue
            inline = ctx.inline_ignores.get(finding.line, set())
            if finding.rule in inline:
                suppressed += 1
                used.setdefault((finding.path, finding.line), set()).add(
                    finding.rule
                )
                continue
        findings.append(finding)

    unused: List[Finding] = []
    if audit_suppressions:
        rule_names = {rule.name for rule in rules}
        for ctx in files:
            for lineno, names in sorted(ctx.inline_ignores.items()):
                for name in sorted(names):
                    if name not in rule_names:
                        unused.append(
                            Finding(
                                ctx.display_path,
                                lineno,
                                "unused-suppression",
                                f"unknown rule {name!r} in ignore comment",
                            )
                        )
                    elif name not in used.get(
                        (ctx.display_path, lineno), set()
                    ):
                        unused.append(
                            Finding(
                                ctx.display_path,
                                lineno,
                                "unused-suppression",
                                f"suppression for {name!r} silences nothing",
                            )
                        )
            for name, lineno in sorted(ctx.file_ignores.items()):
                if name not in rule_names:
                    unused.append(
                        Finding(
                            ctx.display_path,
                            lineno,
                            "unused-suppression",
                            f"unknown rule {name!r} in file-ignore comment",
                        )
                    )
                elif name not in file_used.get(ctx.display_path, set()):
                    unused.append(
                        Finding(
                            ctx.display_path,
                            lineno,
                            "unused-suppression",
                            f"file-ignore for {name!r} silences nothing",
                        )
                    )
        findings.extend(unused)

    findings.sort()
    return LintReport(
        findings=findings,
        files_checked=len(files),
        suppressed=suppressed,
        unused_suppressions=unused,
    )
