"""The serializable simulation spec and its result.

A :class:`Scenario` is pure data -- everything needed to reproduce one
replay: which workload (by registry name plus parameters), which engine
scheme and eviction policy, per-app budget overrides, scale and seed.
``to_dict``/``from_dict`` round-trip through JSON, which is what the CLI
``run``/``sweep`` subcommands consume and what the sweep executor ships
to worker processes.

A :class:`ScenarioResult` carries what came back: per-app hit rates,
overall hit rate, replay throughput, and (when a baseline is supplied)
per-app miss reductions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.cache.policies import POLICIES
from repro.cluster import ClusterConfig, FaultSchedule, RebalanceConfig
from repro.common.errors import ConfigurationError
from repro.common.spec import Spec, spec_field
from repro.serve.harness import ServeConfig
from repro.sim.defaults import FULL_SCALE

#: ``Scenario.plans`` sentinel: compute per-app Dynacache solver plans.
SOLVER_PLANS = "solver"


def miss_reduction(base_hit_rate: float, new_hit_rate: float) -> float:
    """Fraction of the baseline's misses eliminated (can be negative)."""
    base_misses = 1.0 - base_hit_rate
    if base_misses <= 0:
        return 0.0
    return (new_hit_rate - base_hit_rate) / base_misses


@dataclass
class Scenario(Spec):
    """One simulation, described as data.

    Fields:
        scheme: Engine scheme name from :data:`repro.sim.SCHEMES`.
        workload: Workload name from :data:`repro.sim.WORKLOADS`.
        policy: Eviction policy passed to the engines. The
            cliff-scaling schemes (``cliffhanger``, ``cliff-only``,
            ``hill-only``) support ``lru`` only and reject anything
            else; use ``hill`` to pair hill climbing with other
            policies.
        scale: Trace scale (key universes, budgets and request counts).
        seed: Master seed for workload generation and engine RNGs.
        apps: Optional replay subset (app *names*); the workload is
            still built whole, so per-app streams are unchanged.
        budgets: Per-app byte budgets. May be partial; apps not listed
            fall back to the workload's reservations.
        plans: Per-app ``{slab_class: bytes}`` plans for the ``planned``
            scheme, or the string ``"solver"`` to run the Dynacache
            solver on each replayed app's stream.
        workload_params: Extra keyword arguments for the workload
            builder (e.g. ``{"apps": [19]}`` for memcachier).
        engine_overrides: Extra keyword arguments for the scheme builder
            (e.g. ``{"credit_bytes": 4096.0}``).
        cluster: Optional multi-server block: route keys across shard
            servers by consistent hashing
            (:class:`~repro.cluster.ClusterConfig`).
        rebalance: Optional online-rebalancing block: move budget
            credits between shards every epoch
            (:class:`~repro.cluster.RebalanceConfig`).
        faults: Optional fault-injection block: crash and restart
            shards at request offsets
            (:class:`~repro.cluster.FaultSchedule`).
        serve: Optional live-serving block: serve the trace through
            the asyncio memcached-style server under open-loop load
            instead of replaying it offline
            (:class:`~repro.serve.ServeConfig`).
        name: Optional label (sweeps generate one per grid point).

    The four blocks are held as plain dicts, normalized through their
    config class at construction (defaults filled in), so round-trips
    and sweep labels are canonical; ``rebalance``, ``faults`` and
    ``serve`` require ``cluster``. ``python -m repro.experiments
    --list`` prints every block's fields.
    """

    BLOCK = "scenario"

    scheme: str = "default"
    workload: str = "memcachier"
    policy: str = spec_field("lru", choices=tuple(sorted(POLICIES)))
    scale: float = spec_field(FULL_SCALE, gt=0)
    seed: int = spec_field(0, ge=0)
    apps: Optional[List[str]] = None
    budgets: Optional[Dict[str, float]] = None
    plans: Union[None, str, Dict[str, Dict[int, float]]] = None
    workload_params: Dict[str, Any] = field(default_factory=dict)
    engine_overrides: Dict[str, Any] = field(default_factory=dict)
    cluster: Optional[Dict[str, Any]] = spec_field(None, block=ClusterConfig)
    rebalance: Optional[Dict[str, Any]] = spec_field(
        None, block=RebalanceConfig
    )
    faults: Optional[Dict[str, Any]] = spec_field(None, block=FaultSchedule)
    serve: Optional[Dict[str, Any]] = spec_field(None, block=ServeConfig)
    name: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if isinstance(self.plans, str) and self.plans != SOLVER_PLANS:
            raise ConfigurationError(
                f"plans must be a dict, None or {SOLVER_PLANS!r}, "
                f"got {self.plans!r}"
            )
        try:
            if self.apps is not None:
                self.apps = [str(app) for app in self.apps]
            if self.budgets is not None:
                budgets = {}
                for app, value in self.budgets.items():
                    # A boolean is refused, not read as a 1-byte budget.
                    budget = float(value)
                    if isinstance(value, bool) or not (
                        math.isfinite(budget) and budget > 0
                    ):
                        raise ConfigurationError(
                            f"budgets.{app} must be a finite number > 0, "
                            f"got {value!r}"
                        )
                    budgets[str(app)] = budget
                self.budgets = budgets
            if isinstance(self.plans, dict):
                plans = {}
                for app, plan in self.plans.items():
                    entries = plans[app] = {}
                    for slab_class, value in plan.items():
                        # JSON turns integer slab-class keys into strings.
                        capacity = float(value)
                        if isinstance(value, bool) or not (
                            math.isfinite(capacity) and capacity >= 0
                        ):
                            raise ConfigurationError(
                                f"plans.{app}.{slab_class} must be a finite "
                                f"number >= 0, got {value!r}"
                            )
                        entries[int(slab_class)] = capacity
                self.plans = plans
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigurationError(f"bad scenario spec: {exc}") from None
        for block, why in (
            ("rebalance", "online rebalancing moves budget between shards"),
            ("faults", "fault injection crashes and restarts shards"),
            ("serve", "the live server fronts a shard cluster"),
        ):
            if getattr(self, block) is not None and self.cluster is None:
                raise ConfigurationError(
                    f"a {block} block needs a cluster block: {why}"
                )
        if self.faults is not None:
            FaultSchedule.from_dict(self.faults).validate_for(
                self.cluster["shards"]
            )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    # ------------------------------------------------------------------

    def replace(self, **changes: Any) -> "Scenario":
        """A copy with ``changes`` applied (grid-expansion helper)."""
        payload = self.to_dict()
        payload.update(changes)
        return Scenario.from_dict(payload)

    def label(self) -> str:
        """``name`` if set, else a compact workload/scheme descriptor."""
        if self.name:
            return self.name
        label = f"{self.workload}/{self.scheme}/{self.policy}@{self.scale!r}s{self.seed}"
        if self.cluster is not None:
            label += f"/{self.cluster['shards']}shards"
        if self.rebalance is not None and self.rebalance["epoch_requests"]:
            label += f"/rebal-{self.rebalance['policy']}"
        if self.faults is not None and self.faults["events"]:
            label += (
                f"/faults-{self.faults['policy']}"
                f"x{len(self.faults['events'])}"
            )
        if self.serve is not None:
            label += f"/serve-{self.serve['rate']:g}"
        return label


@dataclass
class ScenarioResult:
    """What one scenario replay produced.

    ``server`` and ``stats`` are attached (not serialized) when
    :func:`repro.sim.run_scenario` is called with ``keep_server=True``,
    for callers that need engine internals or per-class counters.
    """

    scenario: Scenario
    hit_rates: Dict[str, float]
    overall_hit_rate: float
    requests: int
    gets: int
    elapsed_seconds: float
    requests_per_sec: float
    budgets: Dict[str, float]
    miss_reductions: Optional[Dict[str, float]] = None
    #: Aggregated :meth:`repro.cluster.Cluster.report` payload (shard
    #: loads, imbalance, hot shards); None for single-server scenarios.
    cluster_report: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        self.server = None
        self.stats = None
        self.cluster = None

    def miss_reductions_vs(self, baseline: "ScenarioResult") -> Dict[str, float]:
        """Per-app fraction of ``baseline``'s misses this run removed."""
        return {
            app: miss_reduction(baseline.hit_rates[app], rate)
            for app, rate in self.hit_rates.items()
            if app in baseline.hit_rates
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "hit_rates": dict(self.hit_rates),
            "overall_hit_rate": self.overall_hit_rate,
            "requests": self.requests,
            "gets": self.gets,
            "elapsed_seconds": self.elapsed_seconds,
            "requests_per_sec": self.requests_per_sec,
            "budgets": dict(self.budgets),
            "miss_reductions": (
                dict(self.miss_reductions)
                if self.miss_reductions is not None
                else None
            ),
            "cluster_report": (
                dict(self.cluster_report)
                if self.cluster_report is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioResult":
        return cls(
            scenario=Scenario.from_dict(payload["scenario"]),
            hit_rates=dict(payload["hit_rates"]),
            overall_hit_rate=payload["overall_hit_rate"],
            requests=payload["requests"],
            gets=payload["gets"],
            elapsed_seconds=payload["elapsed_seconds"],
            requests_per_sec=payload["requests_per_sec"],
            budgets=dict(payload["budgets"]),
            miss_reductions=(
                dict(payload["miss_reductions"])
                if payload.get("miss_reductions") is not None
                else None
            ),
            cluster_report=(
                dict(payload["cluster_report"])
                if payload.get("cluster_report") is not None
                else None
            ),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """A small plain-text summary table."""
        lines = [
            f"== scenario: {self.scenario.label()} ==",
            f"{'app':<12} {'budget_mb':>10} {'hit_rate':>9}"
            + ("  miss_reduction" if self.miss_reductions else ""),
        ]
        for app in sorted(self.hit_rates):
            line = (
                f"{app:<12} {self.budgets[app] / (1 << 20):>10.2f} "
                f"{self.hit_rates[app]:>9.4f}"
            )
            if self.miss_reductions and app in self.miss_reductions:
                line += f"  {self.miss_reductions[app]:>14.4f}"
            lines.append(line)
        lines.append(
            f"overall hit rate {self.overall_hit_rate:.4f}; "
            f"{self.requests:,} requests in {self.elapsed_seconds:.2f}s "
            f"= {self.requests_per_sec:,.0f} req/s"
        )
        if self.cluster_report is not None:
            from repro.cluster import render_cluster_report

            lines.extend(render_cluster_report(self.cluster_report))
        return "\n".join(lines)
