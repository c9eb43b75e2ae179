"""Workload loaders, registered on :data:`repro.sim.WORKLOADS`.

A workload builder takes ``(scale, seed, **params)`` and returns the one
loaded-trace type, :class:`SyntheticTrace`: ``app_names``,
``reservations``, ``requests_per_app``, ``scale``, ``seed`` and a cached
``compiled`` :class:`~repro.workloads.compiled.CompiledTrace` that the
replay fast path consumes. Three workloads are registered here:

* ``memcachier`` -- the paper's synthetic 20-application trace
  (``params``: ``apps`` (1-based spec indices), ``total_requests``);
* ``zipf`` -- N independent Zipf tenants (``params``: ``apps``,
  ``num_keys``, ``alpha``, ``value_size``, ``set_fraction``,
  ``requests_per_app``, ``budget_fraction``);
* ``facebook`` -- the ETC pool model from the 2012 Facebook study, or
  the all-miss unique-key stream (``params``: ``apps``, ``num_keys``,
  ``alpha``, ``get_fraction``, ``unique_keys``, ``requests_per_app``,
  ``budget_bytes``).

``zipf`` and ``facebook`` -- and the two time-dynamic workloads in
:mod:`repro.sim.dynamic` -- are N independent tenants merged by time,
loaded by the one :class:`TenantWorkload`; each contributes only its
per-app defaults table and the function that builds one tenant's
stream and reservation.

Everything goes through :data:`~repro.workloads.compiled.GLOBAL_TRACE_CACHE`
so repeated scenario runs -- and sweep worker processes sharing the
on-disk store -- never regenerate identical traces.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.sim.defaults import FULL_SCALE, GEOMETRY
from repro.sim.registries import WORKLOADS, register_workload
from repro.workloads.compiled import CompiledTrace, GLOBAL_TRACE_CACHE
from repro.workloads.facebook import (
    FACEBOOK_GET_FRACTION,
    FacebookETCStream,
    UniqueKeyStream,
)
from repro.workloads.generators import RequestStream, ZipfStream
from repro.workloads.memcachier import AppSpec, build_memcachier_trace
from repro.workloads.sizes import FixedSize
from repro.workloads.trace import merge_by_time


@dataclass
class SyntheticTrace:
    """A loaded workload: per-app metadata from the cheap analytic build
    plus the merged request stream as a cached :class:`CompiledTrace`,
    so repeated runs sharing a scale/seed never regenerate it."""

    scale: float
    seed: int
    reservations: Dict[str, float]
    requests_per_app: Dict[str, int]
    compiled: CompiledTrace
    #: ``memcachier`` only: each app's :class:`AppSpec` (``has_cliff`` ...).
    specs: Dict[str, AppSpec] = field(default_factory=dict)

    @property
    def app_names(self) -> List[str]:
        return list(self.reservations)

    @property
    def total_requests(self) -> int:
        return sum(self.requests_per_app.values())

    def requests(self):
        return self.compiled.iter_requests()

    def app_requests(self, app: str):
        return self.compiled_for(app).iter_requests()

    def compiled_for(self, app: str) -> CompiledTrace:
        """One app's compiled sub-trace (stable-merge filtering keeps the
        per-app order identical to regenerating the app's stream)."""
        return self.compiled.for_app(app)


def load_workload(name: str, scale: float = FULL_SCALE, seed: int = 0, **params):
    """Build (or fetch from cache) the named workload's loaded trace."""
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    builder = WORKLOADS.get(name)
    return builder(scale, seed, **params)


def _params_tag(params: dict) -> str:
    """A stable digest of workload params for trace-cache keys.

    128 truncated sha256 bits: collisions would silently serve the wrong
    cached trace, so a 32-bit checksum is not enough for large
    programmatic sweeps over ``workload_params``.
    """
    payload = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


# ---------------------------------------------------------------------------
# memcachier
# ---------------------------------------------------------------------------


@register_workload(
    "memcachier", "the paper's 20-app Memcachier-derived trace mix"
)
def _load_memcachier(
    scale: float,
    seed: int,
    apps: Optional[List[int]] = None,
    total_requests: Optional[int] = None,
) -> SyntheticTrace:
    """The paper's synthetic 20-application Memcachier-like trace."""
    meta = build_memcachier_trace(
        scale=scale, seed=seed, apps=apps, total_requests=total_requests
    )
    app_part = "all" if apps is None else "-".join(str(a) for a in sorted(apps))
    key = (
        f"memcachier-scale{scale!r}-seed{seed}-apps{app_part}"
        f"-total{total_requests if total_requests is not None else 'auto'}"
    )
    compiled = GLOBAL_TRACE_CACHE.get_or_compile(key, meta.requests, GEOMETRY)
    return SyntheticTrace(
        scale=scale,
        seed=seed,
        reservations=meta.reservations,
        requests_per_app=meta.requests_per_app,
        compiled=compiled,
        specs=meta.specs,
    )


# ---------------------------------------------------------------------------
# Tenant workloads: N independent per-app streams, merged by time
# ---------------------------------------------------------------------------

#: ``(name, params, scale, seed) -> (stream, reservation_bytes)`` for one
#: tenant; ``params`` is the workload's defaults table overlaid with the
#: spec-wide and then the per-app overrides.
TenantBuilder = Callable[
    [str, Dict[str, Any], float, int], Tuple[RequestStream, float]
]


def _normalize_apps(
    apps: Union[int, List[str], Dict[str, dict], None],
    prefix: str,
    default_count: int,
) -> Dict[str, dict]:
    """``apps`` may be a count, a list of names, or a name->overrides map."""
    if apps is None:
        apps = default_count
    if isinstance(apps, int):
        if apps < 1:
            raise ConfigurationError(f"need at least one app, got {apps}")
        return {f"{prefix}{i:02d}": {} for i in range(1, apps + 1)}
    if isinstance(apps, (list, tuple)):
        return {str(name): {} for name in apps}
    if isinstance(apps, dict):
        return {str(name): dict(overrides or {}) for name, overrides in apps.items()}
    raise ConfigurationError(
        f"apps must be a count, a list of names or a name->params map, "
        f"got {apps!r}"
    )


@dataclass(frozen=True)
class TenantWorkload:
    """A workload of N independent per-app streams merged by time -- the
    one loader behind ``zipf``, ``facebook``, ``zipf-phases`` and
    ``flash-crowd``.

    The fields are everything that differs between them: the per-app
    defaults table, the :data:`TenantBuilder`, how unnamed apps are
    named and how many there are by default. Parameter validation,
    per-app seeds (``seed + 1000 * position``), request counts, the
    trace-cache key and the merge are written here once. Per-app
    parameters are overridable for every app (the spec-wide
    ``defaults`` keywords) or per app (an ``apps`` name -> overrides
    mapping); ``scale`` multiplies key universes and request counts
    together.
    """

    name: str
    build_tenant: TenantBuilder
    app_defaults: Dict[str, Any]
    app_prefix: str
    default_count: int

    def register(self, note: str) -> None:
        """Put this workload on :data:`WORKLOADS` under its name."""
        register_workload(self.name, note)(self)

    def _check(self, params: Dict[str, Any], what: str) -> None:
        unknown = set(params) - set(self.app_defaults)
        if unknown:
            raise ConfigurationError(
                f"unknown {self.name} {what}: {', '.join(sorted(unknown))}"
            )

    def __call__(
        self, scale: float, seed: int, apps=None, **defaults
    ) -> SyntheticTrace:
        self._check(defaults, "workload params")
        app_map = _normalize_apps(apps, self.app_prefix, self.default_count)
        streams: List[RequestStream] = []
        reservations: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for position, (name, overrides) in enumerate(app_map.items()):
            self._check(overrides, f"app params for {name!r}")
            params = {**self.app_defaults, **defaults, **overrides}
            stream, reservations[name] = self.build_tenant(
                name, params, scale, seed + position * 1000
            )
            streams.append(stream)
            counts[name] = max(500, int(params["requests_per_app"] * scale))
        key = (
            f"{self.name.replace('-', '')}-scale{scale!r}-seed{seed}-"
            f"{_params_tag({'apps': app_map, 'defaults': defaults})}"
        )
        compiled = GLOBAL_TRACE_CACHE.get_or_compile(
            key,
            lambda: merge_by_time(
                [
                    stream.generate(counts[stream.app], 3600.0)
                    for stream in streams
                ]
            ),
            GEOMETRY,
        )
        return SyntheticTrace(
            scale=scale,
            seed=seed,
            reservations=reservations,
            requests_per_app=counts,
            compiled=compiled,
        )


# ---------------------------------------------------------------------------
# zipf
# ---------------------------------------------------------------------------

ZIPF_APP_DEFAULTS = {
    "num_keys": 40_000,
    "alpha": 1.0,
    "value_size": 256,
    "set_fraction": 0.0,
    "requests_per_app": 150_000,
    "budget_fraction": 0.25,
}


def zipf_reservation(num_keys: int, value_size: int, fraction: float) -> float:
    """Bytes covering ``fraction`` of the key universe at chunk granularity."""
    _, chunk, _ = GEOMETRY.row(14, value_size)  # ~14-byte keys
    return max(64 * 1024, chunk * num_keys * fraction)


def zipf_stream(
    name: str, params: Dict[str, Any], num_keys: int, seed: int
) -> ZipfStream:
    """A stationary fixed-value-size Zipf tenant from its param table."""
    return ZipfStream(
        app=name,
        num_keys=num_keys,
        alpha=params["alpha"],
        size_model=FixedSize(params["value_size"]),
        set_fraction=params["set_fraction"],
        seed=seed,
    )


def _zipf_tenant(name, params, scale, seed):
    num_keys = max(50, int(params["num_keys"] * scale))
    return zipf_stream(name, params, num_keys, seed), zipf_reservation(
        num_keys, params["value_size"], params["budget_fraction"]
    )


TenantWorkload(
    "zipf", _zipf_tenant, ZIPF_APP_DEFAULTS, app_prefix="zipf", default_count=2
).register("stationary per-app Zipf streams (alpha, working set)")


# ---------------------------------------------------------------------------
# facebook
# ---------------------------------------------------------------------------


def _facebook_tenant(name, params, scale, seed):
    """An ETC pool, or with ``unique_keys`` the section-5.6 all-miss
    worst case; ``scale`` multiplies the budget as well."""
    stream: RequestStream
    if params["unique_keys"]:
        stream = UniqueKeyStream(
            app=name, get_fraction=params["get_fraction"], seed=seed
        )
    else:
        stream = FacebookETCStream(
            app=name,
            num_keys=max(100, int(params["num_keys"] * scale)),
            alpha=params["alpha"],
            get_fraction=params["get_fraction"],
            seed=seed,
        )
    return stream, max(64 * 1024, params["budget_bytes"] * scale)


TenantWorkload(
    "facebook",
    _facebook_tenant,
    {
        "num_keys": 200_000,
        "alpha": 0.95,
        "get_fraction": FACEBOOK_GET_FRACTION,
        "unique_keys": False,
        "requests_per_app": 200_000,
        "budget_bytes": 32 << 20,
    },
    app_prefix="etc",
    default_count=1,
).register("Facebook-style key/value size and popularity model")
