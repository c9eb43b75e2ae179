"""Benchmark harness glue.

Every benchmark wraps one experiment runner from
:mod:`repro.experiments.registry` at a reduced trace scale, times it with
pytest-benchmark, prints the regenerated table (visible with ``-s`` or in
benchmark output capture), and asserts the table's shape-level claims.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentResult
from repro.sim import BENCH_SCALE
from repro.experiments.registry import get_runner


def run_experiment_benchmark(
    benchmark, experiment_id: str, scale: float = BENCH_SCALE, **kwargs
) -> ExperimentResult:
    """Time one runner (single round: a full trace replay per call)."""
    runner = get_runner(experiment_id)

    def call() -> ExperimentResult:
        return runner(scale=scale, seed=0, **kwargs)

    result = benchmark.pedantic(call, iterations=1, rounds=1)
    print()
    print(result.render())
    assert result.rows, experiment_id
    return result


@pytest.fixture
def run_bench(benchmark):
    def _run(experiment_id: str, scale: float = BENCH_SCALE, **kwargs):
        return run_experiment_benchmark(
            benchmark, experiment_id, scale=scale, **kwargs
        )

    return _run
