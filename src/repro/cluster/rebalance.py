"""Epoch-driven online rebalancing of shard budgets.

The paper's hill climbing stops at the single-server boundary: "Cliffhanger
runs on each memory cache server and does not require any coordination
between different servers" (section 4.3). That leaves cluster-level memory
frozen at whatever split the operator chose, so a shard that turns hot --
a flash crowd landing on its keys, or a ring that handed it a larger slice
of the keyspace -- cannot borrow bytes from a cold one.

This module extends Algorithm 1 one level up. Shards become the resize
targets of a :class:`~repro.core.hill_climbing.HillClimber`: every
``epoch_requests`` requests the :class:`Rebalancer` reads per-shard demand
signals from the shard servers' own stats registries and grants one credit
to the neediest shard, shrinking a random other shard exactly like the
paper's queue-level algorithm. Two signals are supported:

* ``shadow`` -- the epoch's shadow-hit delta per shard: requests that
  missed physically but would have hit with a little more memory. This is
  the paper's own gradient signal, aggregated per server; it requires a
  shadow-capable scheme (``hill``, ``cliffhanger``, ...).
* ``load`` -- the epoch's request-count delta per shard: byte-blind but
  scheme-agnostic, the classic "feed the busiest shard" heuristic.

Growing or shrinking a shard re-divides its server's reservation across
that shard's per-app engines proportionally, through the same
``grow_budget``/``shrink_budget`` hooks
:class:`~repro.core.crossapp.CrossAppHillClimber` uses within one server.
Every epoch's resulting allocation is appended to the rebalancer's
``times`` / ``series`` columns, which the cluster report exposes as the
rebalance timeline.

The rebalancer keeps no clock: the cluster's window driver stops at
every multiple of ``epoch_requests`` on its own (trace position offline,
requests served live) and calls :meth:`Rebalancer.on_epoch` from its
barrier; a run that ends partway into an epoch ends without one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.common.constants import (
    DEFAULT_EPOCH_REQUESTS,
    DEFAULT_MIN_SHARD_FRACTION,
    DEFAULT_REBALANCE_CREDIT_BYTES,
)
from repro.common.errors import ConfigurationError
from repro.common.spec import Spec, spec_field
from repro.core.hill_climbing import HillClimber

#: Signal policies :class:`RebalanceConfig` accepts.
POLICIES = ("shadow", "load")


@dataclass(frozen=True)
class RebalanceConfig(Spec):
    """The serializable shape of a scenario's ``rebalance`` block.

    ``epoch_requests == 0`` disables rebalancing entirely -- the replay
    stays on the static-split path, bit for bit (the parity tests pin
    this down).
    """

    BLOCK = "rebalance"

    epoch_requests: int = spec_field(DEFAULT_EPOCH_REQUESTS, ge=0)
    credit_bytes: float = spec_field(DEFAULT_REBALANCE_CREDIT_BYTES, gt=0)
    min_shard_fraction: float = spec_field(DEFAULT_MIN_SHARD_FRACTION, ge=0)
    policy: str = spec_field("shadow", choices=POLICIES)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.min_shard_fraction >= 1.0:
            raise ConfigurationError(
                f"min_shard_fraction must be in [0, 1), got "
                f"{self.min_shard_fraction}"
            )

    @property
    def enabled(self) -> bool:
        return self.epoch_requests > 0


class Rebalancer:
    """Algorithm 1 over the shards of one :class:`~repro.cluster.Cluster`.

    Attach with :meth:`repro.cluster.Cluster.attach_rebalancer`; the
    cluster's window driver then calls :meth:`on_epoch` every
    ``config.epoch_requests`` requests. Determinism: the victim RNG is
    seeded from ``seed``, signals are integer counters, and ties go to
    the lowest shard index, so a fixed scenario seed yields a fixed epoch
    timeline.
    """

    def __init__(
        self, cluster, config: RebalanceConfig, seed: int = 0
    ) -> None:
        if not config.enabled:
            raise ConfigurationError(
                "rebalancer built from a disabled config "
                "(epoch_requests == 0); keep the static split instead"
            )
        self.cluster = cluster
        self.config = config
        total = cluster.memory_reserved()
        #: Byte floor per shard: a fraction of the even split.
        self.floor_bytes = config.min_shard_fraction * (
            total / cluster.shards
        )
        self.climber = HillClimber(
            credit_bytes=config.credit_bytes,
            min_bytes=self.floor_bytes,
            rng=random.Random(seed),
        )
        for shard in range(cluster.shards):
            self.climber.register(
                shard,
                get_capacity=lambda s=shard: self.shard_budget(s),
                set_capacity=lambda cap, s=shard: self._set_shard_budget(
                    s, cap
                ),
            )
        self.epochs = 0
        self.evictions = 0
        self._last_signal = self._signals()
        #: The allocation timeline: epoch numbers, and each shard's
        #: budget after that epoch.
        self.times: List[float] = []
        self.series: Dict[str, List[float]] = {
            f"shard{shard}": [] for shard in range(cluster.shards)
        }
        self._sample()  # epoch 0: the starting (static) allocation

    # ------------------------------------------------------------------
    # Shard budgets as hill-climber resize targets
    # ------------------------------------------------------------------

    def shard_budget(self, shard: int) -> float:
        """One shard's reservation: the sum of its engines' budgets."""
        return self.cluster.shard_budget(shard)

    def budgets(self) -> List[float]:
        return [self.shard_budget(s) for s in range(self.cluster.shards)]

    def _set_shard_budget(self, shard: int, target: float) -> None:
        """Scale the shard's engine budgets to sum to ``target`` through
        the cluster's canonical seam
        (:meth:`repro.cluster.Cluster.scale_shard_budget`), charging the
        enforced evictions to the rebalancer."""
        self.evictions += self.cluster.scale_shard_budget(shard, target)

    # ------------------------------------------------------------------
    # Epoch handling
    # ------------------------------------------------------------------

    def _signals(self) -> List[int]:
        """Cumulative per-shard demand signal (policy-dependent)."""
        servers = self.cluster.servers
        if self.config.policy == "shadow":
            return [server.stats.total.shadow_hits for server in servers]
        return [
            server.stats.total.gets + server.stats.total.sets
            for server in servers
        ]

    def on_epoch(self) -> Optional[int]:
        """One rebalance decision: grow the neediest shard, shrink a
        random other (Algorithm 1 with shards as queues). Returns the
        donor shard, or None when no transfer happened (no demand signal
        this epoch, or every other shard sits at the floor).

        Crashed shards (cluster fault injection) neither win nor donate:
        their demand deltas are masked to zero -- a dead shard can still
        accumulate signal under the ``miss-through`` policy -- and the
        donor pool is filtered to live shards. With every shard live the
        masking is a no-op and the climber call is unchanged, so
        fault-free replays stay bit-identical.
        """
        current = self._signals()
        deltas = [
            now - before
            for now, before in zip(current, self._last_signal)
        ]
        self._last_signal = current
        self.epochs += 1
        victim = None
        live = self.cluster.live_mask()
        all_live = all(live)
        if not all_live:
            deltas = [
                delta if alive else 0
                for delta, alive in zip(deltas, live)
            ]
        best = max(deltas)
        if best > 0:
            winner = deltas.index(best)  # ties: lowest shard index
            victim = self.climber.on_shadow_hit(
                winner,
                eligible=None if all_live else live.__getitem__,
            )
        self._sample()
        return victim

    def _sample(self) -> None:
        self.times.append(float(self.epochs))
        for shard, column in enumerate(self.series.values()):
            column.append(float(self.shard_budget(shard)))

    # ------------------------------------------------------------------

    @property
    def transfers(self) -> int:
        return self.climber.transfers

    def to_dict(self) -> Dict[str, Any]:
        """The report payload: config, outcome counters, and the
        per-epoch allocation timeline."""
        payload = self.config.to_dict()
        payload.update(
            epochs=self.epochs,
            transfers=self.transfers,
            rebalance_evictions=self.evictions,
            shard_budgets=self.budgets(),
            timeline={
                "interval": 1.0,
                "times": list(self.times),
                "series": {
                    name: list(column) for name, column in self.series.items()
                },
            },
        )
        return payload
