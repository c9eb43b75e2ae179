"""Command-line front end: ``python -m repro.lint [PATH ...]``.

Exit codes follow the experiments CLI convention: 0 clean, 1 findings,
2 usage or configuration errors (one-line message on stderr).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.lint.engine import collect_files
from repro.lint.rules import RULES, run_rules

#: What a bare invocation lints, relative to the working directory.
DEFAULT_PATHS = ("src", "tests", "benchmarks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static checks for the hazards no test of this repository "
            f"catches: {', '.join(RULES)}."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        files = collect_files([Path(path) for path in args.paths])
    except ConfigurationError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2
    findings = run_rules(files)
    for finding in findings:
        print(finding.render())
    print(f"repro.lint: {len(findings)} finding(s) in {len(files)} file(s)")
    return 1 if findings else 0
