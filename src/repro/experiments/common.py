"""Shared experiment bookkeeping.

:class:`ExperimentResult` rendering/serialization, plus the
``miss_reduction`` arithmetic and ``FULL_SCALE`` default of
:mod:`repro.sim` for the runners that import them from here. Engines,
traces, profiling and replay all live in :mod:`repro.sim`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

from repro.sim import FULL_SCALE, miss_reduction

__all__ = ["ExperimentResult", "FULL_SCALE", "miss_reduction"]


@dataclass
class ExperimentResult:
    """A rendered experiment: headers + rows + provenance notes."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: str = ""
    paper_reference: str = ""

    def render(self) -> str:
        """Plain-text aligned table, like the paper's tables."""
        table = [self.headers] + [
            [_format_cell(cell) for cell in row] for row in self.rows
        ]
        widths = [
            max(len(str(row[col])) for row in table)
            for col in range(len(self.headers))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.paper_reference:
            lines.append(f"(paper: {self.paper_reference})")
        header = "  ".join(
            str(cell).ljust(widths[i])
            for i, cell in enumerate(self.headers)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in table[1:]:
            lines.append(
                "  ".join(
                    str(cell).ljust(widths[i]) for i, cell in enumerate(row)
                )
            )
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment_id": self.experiment_id,
                "title": self.title,
                "headers": self.headers,
                "rows": self.rows,
                "notes": self.notes,
                "paper_reference": self.paper_reference,
            },
            indent=2,
            default=str,
        )

    def save(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment_id}.json"
        path.write_text(self.to_json(), encoding="utf-8")
        return path


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
