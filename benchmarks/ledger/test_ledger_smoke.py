"""Tier-1 smoke test of the performance ledger.

Runs every workload at ``--smoke`` size -- each code path and every
correctness check, in a few seconds -- and checks what the driver
relies on: the last line of output, the metric names against
``BENCHMARK.json``, and that smoke results cannot be compared. It
asserts nothing about the numbers.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def processes_tagged(tag: str) -> list:
    """Command lines of the live processes whose environment holds
    ``tag`` (every descendant of a run inherits the run's)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            environ = Path(f"/proc/{entry}/environ").read_bytes()
            if tag.encode() in environ:
                found.append(Path(f"/proc/{entry}/cmdline").read_bytes())
        except OSError:
            continue  # ended meanwhile, or not ours to read
    return found


def run_smoke(workload: str, trace: int, out: Path) -> dict:
    tag = f"LEDGER_SMOKE_TAG={uuid.uuid4().hex}"
    name, value = tag.split("=")
    completed = subprocess.run(
        [
            sys.executable, str(LEDGER / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "2",
            "--trace", str(trace), "--smoke", "--out", str(out),
        ],
        cwd=ROOT,
        env=dict(os.environ, **{name: value}),
        capture_output=True,
        text=True,
        timeout=120,
    )
    # The command may return only once everything it started has ended:
    # server, replay workers, multiprocessing's resource tracker.
    assert processes_tagged(tag) == []
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_line(line: dict, declared: list) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert line["failed"] == 0
    assert list(line["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        assert NAME.fullmatch(entry["name"]), entry["name"]
        reported = line["metrics"][entry["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == entry["unit"]
        assert isinstance(reported["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_run(workload, tmp_path):
    line = run_smoke(workload, 0, tmp_path)
    check_line(line, MANIFEST["end_to_end"])
    for entry in MANIFEST["end_to_end"]:
        assert line["metrics"][entry["name"]]["value"] > 0, entry["name"]
    result = json.loads(next(tmp_path.glob("*-plain.json")).read_text())
    assert result["provenance"]["smoke"] is True
    assert {"commit", "seed", "nproc", "python", "cpu_model",
            "load_average_1m"} <= set(result["provenance"])
    assert {"repetitions-identical", "static==parallel", "value-bytes",
            "stats-totals", "drained-exit-0"} <= set(result["checks"])
    assert not list(tmp_path.glob("tmp-*")), "scratch directory left behind"
    # Smoke numbers measure nothing: the comparison must refuse them.
    compared = subprocess.run(
        [sys.executable, str(LEDGER / "compare.py"), str(tmp_path), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert compared.returncode == 2
    assert "smoke" in compared.stderr


def test_traced_smoke_run(tmp_path):
    line = run_smoke("cluster_replay", 1, tmp_path)
    check_line(line, MANIFEST["per_layer"])
    spans = [
        json.loads(text)
        for text in (tmp_path / "spans.jsonl").read_text().splitlines()
    ]
    assert spans and {"name", "start", "end", "parent", "phase"} <= set(spans[0])
    names = {span["name"] for span in spans}
    assert {"workloads.compile", "cluster.plan_build", "serve.service.execute",
            "cluster.process_batch"} <= names


def test_manifest_shape():
    assert MANIFEST["paths"] == ["benchmarks/ledger"]
    assert WORKLOADS == [
        "replay_paper", "cluster_replay", "serve_read", "serve_write"
    ]
    names = [entry["name"] for entry in MANIFEST["end_to_end"]]
    names += [entry["name"] for entry in MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    for entry in MANIFEST["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
