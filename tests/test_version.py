"""The package reports the version ``pyproject.toml`` declares."""

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    match = re.search(
        r'^version\s*=\s*"([^"]+)"', PYPROJECT.read_text(), re.MULTILINE
    )
    assert match, "pyproject.toml declares no version"
    assert repro.__version__ == match.group(1)
