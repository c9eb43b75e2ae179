"""Core of the ``repro.lint`` static-analysis pass.

The engine parses each Python file once into a :class:`FileContext`
that knows which package of ``src/repro`` the file belongs to, runs
every rule over it, and returns the findings sorted by path and line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError

#: Path fragment that a directory walk skips: the lint test fixtures
#: deliberately violate every rule. Naming a fixture directory itself
#: lints it.
FIXTURES = "lint/fixtures"

#: Packages whose replay results must be bit-identical across runs at a
#: fixed seed; the determinism rule only applies inside these. ``core``
#: holds the Cliffhanger engines and the climber's RNG; ``allocation``
#: and ``profiling`` feed the solver plans the tables replay.
REPLAY_PACKAGES = (
    "cache", "cluster", "workloads", "sim", "core", "allocation", "profiling",
)


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

    def __init__(self, display_path: str, source: str) -> None:
        self.display_path = display_path
        self.tree = ast.parse(source, filename=display_path)
        #: Dotted module path below ``src/repro`` (e.g. ``cache.stats``),
        #: or None for files outside it (tests, benchmarks).
        self.repro_module: Optional[str] = None
        parts = PurePosixPath(display_path).parts
        for index in range(len(parts) - 2, -1, -1):
            if parts[index:index + 2] == ("src", "repro"):
                below = ".".join(parts[index + 2:])
                self.repro_module = below[: -len(".py")] or None
                break
        self._import_paths: Optional[Dict[str, str]] = None

    @property
    def is_src(self) -> bool:
        return self.repro_module is not None

    @property
    def is_replay_path(self) -> bool:
        """True for modules whose replays must be bit-reproducible."""
        module = self.repro_module
        return module is not None and module.split(".")[0] in REPLAY_PACKAGES

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
                        mapping[local] = alias.name if alias.asname else local
                elif isinstance(node, ast.ImportFrom):
                    if node.level or node.module is None:
                        continue
                    for alias in node.names:
                        if alias.name != "*":
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
        chain.append(self.import_paths.get(node.id, node.id))
        return ".".join(reversed(chain))


def collect_files(paths: Sequence[Path]) -> List[FileContext]:
    """Parse every ``.py`` file under ``paths`` into a FileContext.

    Findings name files as the paths were given (relative stays
    relative). A missing path or a file that cannot be read or parsed
    raises :class:`ConfigurationError`: nothing else in it can be
    checked.
    """
    contexts: List[FileContext] = []
    for base in paths:
        if base.is_file():
            candidates = [base]
        elif base.is_dir():
            walk_fixtures = FIXTURES in base.as_posix()
            candidates = [
                path
                for path in sorted(base.rglob("*.py"))
                if walk_fixtures or FIXTURES not in path.as_posix()
            ]
        else:
            raise ConfigurationError(f"no such file or directory: {base}")
        for candidate in candidates:
            display_path = candidate.as_posix()
            try:
                source = candidate.read_text(encoding="utf-8")
                contexts.append(FileContext(display_path, source))
            except (SyntaxError, ValueError) as exc:
                raise ConfigurationError(
                    f"cannot parse {display_path}: {exc}"
                ) from None
    return contexts
