"""Tables do not depend on the interpreter's hash seed.

The determinism lint bans iterating a set display, but a set built at
run time -- ``set(keys)`` passed around, ``next(iter(bucket))`` -- is
invisible to it: its order follows ``PYTHONHASHSEED`` for str keys.
Each runner here replays under two hash seeds in fresh interpreters,
with the trace cache off so both build their traces, and its JSON must
be byte-identical.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Cheap deterministic runners covering cliff scaling (fig3), hill
#: climbing (fig9), the solver tables (tab5) and the cluster rebalancer.
RUNNERS = ("fig3", "fig9", "tab5", "cluster_rebalance")


def run_under_hash_seed(experiment: str, hash_seed: int, out: Path) -> bytes:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED=str(hash_seed),
        REPRO_TRACE_CACHE="off",
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        ),
    )
    subprocess.run(
        [
            sys.executable, "-m", "repro.experiments", "run", experiment,
            "--scale", "0.012", "--seed", "0", "--out", str(out),
        ],
        env=env,
        check=True,
        capture_output=True,
        timeout=120,
    )
    return (out / f"{experiment}.json").read_bytes()


@pytest.mark.parametrize("experiment", RUNNERS)
def test_json_is_identical_across_hash_seeds(experiment, tmp_path):
    first = run_under_hash_seed(experiment, 1, tmp_path / "seed1")
    second = run_under_hash_seed(experiment, 2, tmp_path / "seed2")
    assert first == second
