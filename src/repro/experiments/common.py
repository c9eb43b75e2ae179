"""Shared experiment bookkeeping.

:class:`ExperimentResult` rendering/serialization, the
``miss_reduction`` arithmetic and ``FULL_SCALE`` default of
:mod:`repro.sim` for the runners that import them from here, and the
one declaration of the flash-crowd cluster scenario the five cluster
experiments run. Engines, traces, profiling and replay all live in
:mod:`repro.sim`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.sim import (
    FULL_SCALE,
    Scenario,
    ScenarioResult,
    load_workload,
    miss_reduction,
    run_scenario,
)

__all__ = [
    "ExperimentResult",
    "FLASH_CROWD_PARAMS",
    "FULL_SCALE",
    "VIRTUAL_NODES",
    "flash_crowd_base",
    "flash_crowd_trace",
    "miss_reduction",
    "probe_capacity",
    "rebalance_block",
]

#: The flash-crowd tenant pair every cluster experiment replays.
FLASH_CROWD_PARAMS = {
    "apps": 2,
    "num_keys": 20_000,
    "requests_per_app": 80_000,
    "crowd_fraction": 0.7,
}

#: Few virtual nodes on purpose: the ring then splits the keyspace
#: unevenly, which is exactly the imbalance a static budget split cannot
#: correct and the rebalancer can (and what gives a crash a clear hot
#: target).
VIRTUAL_NODES = 4

#: Credit per epoch as a fraction of the even per-shard split.
CREDIT_FRACTION = 0.05

#: Epochs per run (epoch_requests is derived from the run's length so
#: the decision cadence survives scaling).
TARGET_EPOCHS = 32


def flash_crowd_trace(scale: float, seed: int):
    """The flash-crowd workload at ``scale`` (compiled once, cached)."""
    return load_workload(
        "flash-crowd", scale=scale, seed=seed, **FLASH_CROWD_PARAMS
    )


def flash_crowd_base(
    scale: float, seed: int, shards: int, scheme: str
) -> Scenario:
    """The flash crowd over ``shards`` shards of the uneven ring."""
    return Scenario(
        scheme=scheme,
        workload="flash-crowd",
        scale=scale,
        seed=seed,
        workload_params=dict(FLASH_CROWD_PARAMS),
        cluster={"shards": int(shards), "virtual_nodes": VIRTUAL_NODES},
    )


def rebalance_block(
    requests: int, even_share: float, policy: str
) -> Dict[str, Any]:
    """The ``rebalance`` block for a run of ``requests`` requests whose
    shards start at ``even_share`` bytes each."""
    return {
        "epoch_requests": int(max(50, requests // TARGET_EPOCHS)),
        "credit_bytes": float(CREDIT_FRACTION * even_share),
        "policy": policy,
    }


def probe_capacity(
    base: Scenario, duration_s: float
) -> Tuple[float, ScenarioResult]:
    """Calibrate the live harness: overdrive the server briefly; the
    completion rate of a far-past-saturation run is its sustainable
    rate on this machine (queue backpressure, so every probe request
    completes). Returns that rate and the probe's result."""
    probe = run_scenario(
        base.replace(
            serve={
                "rate": 100_000.0,
                "duration_s": min(0.25, duration_s),
                "arrivals": "fixed",
            }
        )
    )
    capacity = max(500.0, probe.cluster_report["serve"]["achieved_rate"])
    return capacity, probe


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
