"""Built-in engine schemes, registered on :data:`repro.sim.SCHEMES`.

Each builder instantiates one tenant engine; :func:`make_engine`
looks the scheme up by name and calls its builder.

Schemes: ``default`` (stock FCFS), ``planned`` (a solver plan), ``lsm``
(global LRU), ``hill`` (Algorithm 1 only, any policy), ``cliff-only``,
``hill-only`` and ``cliffhanger`` (the combined system).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.engines import (
    Engine,
    FirstComeFirstServeEngine,
    PlannedEngine,
)
from repro.cache.log_structured import GlobalLRUEngine
from repro.cache.slabs import SlabGeometry
from repro.common.errors import ConfigurationError
from repro.core.engine import CliffhangerEngine, HillClimbEngine
from repro.sim.defaults import GEOMETRY
from repro.sim.registries import SCHEMES, register_scheme


def scaled_cliff_kwargs(scale: float) -> Dict[str, int]:
    """Shrink probe/gate constants along with queue sizes at small scale.

    At full scale the paper constants apply (128-item probes, 1000-item
    gate); scaled-down traces shrink queues proportionally, so keeping
    the constants would disable cliff scaling entirely.
    """
    if scale >= 0.5:
        return {}
    return {
        "probe_items": max(12, int(128 * scale)),
        "min_cliff_items": max(100, int(600 * scale)),
        # Credits move a fixed fraction of (scaled) memory per shadow
        # hit; shadow-hit counts scale with the request count, so the
        # credit must scale with memory to converge in the same number
        # of trace passes.
        "credit_bytes": max(512.0, 4096 * scale * 2),
        # The shadow approximates the *local* gradient only while it is
        # small relative to the queue (paper ratio: 1 MB shadows on
        # ~50 MB applications); scale it with the queues or the shadow
        # hit rate measures total tail mass instead.
        "hill_shadow_bytes": max(16 << 10, int((1 << 20) * scale)),
    }


@register_scheme(
    "default", "slab FCFS (memcached-style first-come first-serve)"
)
def _build_default(
    app: str,
    budget_bytes: float,
    *,
    geometry: SlabGeometry,
    policy: str = "lru",
    **_context,
) -> Engine:
    return FirstComeFirstServeEngine(app, budget_bytes, geometry, policy=policy)


@register_scheme("planned", "static per-class plan (Dynacache solver output)")
def _build_planned(
    app: str,
    budget_bytes: float,
    *,
    geometry: SlabGeometry,
    policy: str = "lru",
    plan: Optional[Dict[int, float]] = None,
    **_context,
) -> Engine:
    if plan is None:
        raise ConfigurationError(f"planned engine needs a plan for app {app!r}")
    return PlannedEngine(app, budget_bytes, geometry, plan, policy=policy)


@register_scheme("lsm", "single global LRU over one log (no slab classes)")
def _build_lsm(
    app: str,
    budget_bytes: float,
    *,
    geometry: SlabGeometry,
    policy: str = "lru",
    **_context,
) -> Engine:
    return GlobalLRUEngine(app, budget_bytes, geometry, policy=policy)


@register_scheme("hill", "shadow-queue hill climbing across slab classes")
def _build_hill(
    app: str,
    budget_bytes: float,
    *,
    geometry: SlabGeometry,
    scale: float = 1.0,
    seed: int = 0,
    policy: str = "lru",
    plan: Optional[Dict[int, float]] = None,
    **overrides,
) -> Engine:
    scaled = scaled_cliff_kwargs(scale)
    hill_kwargs = {}
    if "credit_bytes" in scaled:
        hill_kwargs["credit_bytes"] = scaled["credit_bytes"]
    if "hill_shadow_bytes" in scaled:
        hill_kwargs["shadow_bytes"] = scaled["hill_shadow_bytes"]
    hill_kwargs.update(overrides)
    return HillClimbEngine(
        app, budget_bytes, geometry, policy=policy, seed=seed, **hill_kwargs
    )


#: The combined engine's three schemes: name -> (``--list`` note, the
#: engine flags that differ from the full system).
_CLIFFHANGER_VARIANTS = {
    "cliff-only": (
        "Talus-style cliff scaling, no hill climbing",
        {"enable_hill_climbing": False},
    ),
    "hill-only": (
        "Cliffhanger's climber without cliff scaling",
        {"enable_cliff_scaling": False},
    ),
    "cliffhanger": ("full Cliffhanger: cliff scaling + hill climbing", {}),
}


def _build_cliffhanger_variant(scheme: str, variant: Dict[str, bool]):
    def build(
        app: str,
        budget_bytes: float,
        *,
        geometry: SlabGeometry,
        scale: float = 1.0,
        seed: int = 0,
        policy: str = "lru",
        plan: Optional[Dict[int, float]] = None,
        **overrides,
    ) -> Engine:
        if policy != "lru":
            # Cliff scaling assumes LRU rank semantics; silently ignoring
            # a requested policy would make policy sweeps lie.
            raise ConfigurationError(
                f"scheme {scheme!r} supports only the 'lru' policy, got "
                f"{policy!r}; use scheme 'hill' to combine hill climbing "
                f"with other eviction policies"
            )
        kwargs = dict(scaled_cliff_kwargs(scale))
        kwargs.update(overrides)
        return CliffhangerEngine(
            app, budget_bytes, geometry, seed=seed, **variant, **kwargs
        )

    return build


for _scheme, (_note, _variant) in _CLIFFHANGER_VARIANTS.items():
    register_scheme(_scheme, _note)(
        _build_cliffhanger_variant(_scheme, _variant)
    )


def make_engine(
    scheme: str,
    app: str,
    budget_bytes: float,
    scale: float = 1.0,
    seed: int = 0,
    plan: Optional[Dict[int, float]] = None,
    policy: str = "lru",
    geometry: SlabGeometry = GEOMETRY,
    **overrides,
) -> Engine:
    """Instantiate an engine by scheme name (registry dispatch)."""
    builder = SCHEMES.get(scheme)
    return builder(
        app,
        budget_bytes,
        geometry=geometry,
        scale=scale,
        seed=seed,
        policy=policy,
        plan=plan,
        **overrides,
    )
