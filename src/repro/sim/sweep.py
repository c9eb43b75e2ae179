"""Parameter sweeps: scenario grids executed across worker processes.

A :class:`Sweep` expands a base :class:`Scenario` against ``axes`` -- an
ordered mapping of field paths to value lists -- into the full cross
product and runs every grid point, either serially or on a process pool.
Axis keys name scenario fields (``"scheme"``, ``"seed"``) or dotted
paths into the nested dicts (``"workload_params.total_requests"``,
``"engine_overrides.credit_bytes"``, ``"budgets.app19"``,
``"cluster.shards"``, ``"rebalance.epoch_requests"``).

Worker processes receive plain scenario dicts (everything is JSON-safe)
and share the on-disk compiled-trace cache, so a grid over schemes or
budgets compiles each workload once no matter how many workers replay
it. Results always come back in grid order regardless of which worker
finished first.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.mp import get_mp_context
from repro.sim.runner import run_scenario
from repro.sim.scenario import Scenario, ScenarioResult


def _apply_axis(payload: Dict[str, Any], path: str, value: Any) -> None:
    """Set ``path`` (possibly dotted) inside a scenario dict."""
    parts = path.split(".")
    target = payload
    for part in parts[:-1]:
        node = target.get(part)
        if node is None:
            node = target[part] = {}
        elif not isinstance(node, dict):
            raise ConfigurationError(
                f"axis {path!r} descends into non-dict field {part!r}"
            )
        target = node
    target[parts[-1]] = value


def _run_scenario_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: dicts in, dicts out (picklable both ways)."""
    return run_scenario(Scenario.from_dict(payload)).to_dict()


def _pool_initializer(cache_directory: Optional[str]) -> None:
    """Point the worker's global trace cache at the parent's directory.

    Under fork the worker inherits the parent's resolved cache anyway;
    under spawn the module re-imports and re-reads ``REPRO_TRACE_CACHE``
    from the environment, which loses any directory the parent resolved
    or was configured with programmatically. Pinning it here makes the
    on-disk store identical across start methods -- including "no disk
    store at all" when the parent disabled it.
    """
    from repro.workloads import compiled

    compiled.GLOBAL_TRACE_CACHE.directory = (
        Path(cache_directory) if cache_directory else None
    )


@dataclass
class Sweep:
    """A scenario grid: ``base`` x the cross product of ``axes``.

    ``axes`` preserves insertion order; the first axis varies slowest,
    like nested loops. Expansion is deterministic, and so is result
    order.
    """

    base: Scenario = field(default_factory=Scenario)
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    name: Optional[str] = None
    #: Default worker count for :meth:`run` when the caller passes none;
    #: this is what a spec's ``workers`` key sets.
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers is not None:
            if not isinstance(self.workers, int) or self.workers < 1:
                raise ConfigurationError(
                    f"workers must be a positive integer, got {self.workers!r}"
                )
        for path, values in self.axes.items():
            if isinstance(values, (str, bytes)) or not isinstance(
                values, (list, tuple)
            ):
                raise ConfigurationError(
                    f"axis {path!r} must map to a list of values, "
                    f"got {values!r}"
                )
            if len(values) == 0:
                raise ConfigurationError(f"axis {path!r} has no values")

    def __len__(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def scenarios(self) -> List[Scenario]:
        """The expanded grid, in deterministic order."""
        paths = list(self.axes)
        grid = []
        for combo in itertools.product(*(self.axes[p] for p in paths)):
            payload = self.base.to_dict()
            for path, value in zip(paths, combo):
                _apply_axis(payload, path, value)
            if payload.get("name") is None and paths:
                payload["name"] = ",".join(
                    f"{path.rsplit('.', 1)[-1]}={value}"
                    for path, value in zip(paths, combo)
                )
            grid.append(Scenario.from_dict(payload))
        return grid

    def run(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> "SweepResult":
        """Execute every grid point; results come back in grid order.

        ``workers``: ``None`` falls back to the sweep's own ``workers``
        default (what a spec's ``workers`` key sets); ``None``-after-
        fallback or ``<= 1`` runs serially in-process; larger values fan
        scenarios out over a process pool sharing the on-disk
        compiled-trace cache.

        ``start_method`` pins the pool's multiprocessing start method;
        ``None`` uses :data:`repro.common.mp.DEFAULT_START_METHOD`. The
        context is always explicit -- worker behavior must not depend on
        the platform default.
        """
        if workers is None:
            workers = self.workers
        grid = self.scenarios()
        started = time.perf_counter()
        if workers is not None and workers > 1:
            from repro.workloads.compiled import GLOBAL_TRACE_CACHE

            payloads = [scenario.to_dict() for scenario in grid]
            cache_dir = GLOBAL_TRACE_CACHE.directory
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=get_mp_context(start_method),
                initializer=_pool_initializer,
                initargs=(str(cache_dir) if cache_dir else None,),
            ) as pool:
                result_dicts = list(pool.map(_run_scenario_payload, payloads))
            results = [ScenarioResult.from_dict(d) for d in result_dicts]
        else:
            workers = 1
            results = [run_scenario(scenario) for scenario in grid]
        elapsed = time.perf_counter() - started
        return SweepResult(
            results=results, elapsed_seconds=elapsed, workers=workers
        )

    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Sweep":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"sweep spec must be an object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"base", "axes", "name", "workers"}
        if unknown:
            raise ConfigurationError(
                f"unknown sweep fields: {', '.join(sorted(unknown))}"
            )
        return cls(
            base=Scenario.from_dict(payload.get("base", {})),
            axes=dict(payload.get("axes", {})),
            name=payload.get("name"),
            workers=payload.get("workers"),
        )


@dataclass
class SweepResult:
    """All grid points' results, in grid order, plus wall-clock totals."""

    results: List[ScenarioResult]
    elapsed_seconds: float
    workers: int

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def total_requests(self) -> int:
        return sum(result.requests for result in self.results)

    @property
    def requests_per_sec(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_requests / self.elapsed_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "workers": self.workers,
            "total_requests": self.total_requests,
            "requests_per_sec": self.requests_per_sec,
            "results": [result.to_dict() for result in self.results],
        }

    def render(self) -> str:
        """Plain-text summary: one line per grid point."""
        lines = [
            f"{'scenario':<44} {'hit_rate':>9} {'req/s':>12}",
            "-" * 67,
        ]
        for result in self.results:
            lines.append(
                f"{result.scenario.label():<44} "
                f"{result.overall_hit_rate:>9.4f} "
                f"{result.requests_per_sec:>12,.0f}"
            )
        lines.append(
            f"{len(self.results)} scenarios, {self.total_requests:,} requests "
            f"in {self.elapsed_seconds:.2f}s on {self.workers} worker(s) "
            f"= {self.requests_per_sec:,.0f} req/s aggregate"
        )
        return "\n".join(lines)


def run_sweep(
    spec: Dict[str, Any], workers: Optional[int] = None
) -> SweepResult:
    """Run a sweep from a JSON-style spec: ``{"base": {...}, "axes":
    {...}, "workers": N}``. ``workers`` overrides the spec's value and
    is checked by the same rule."""
    if workers is not None:
        spec = {**spec, "workers": workers}
    return Sweep.from_dict(spec).run()
