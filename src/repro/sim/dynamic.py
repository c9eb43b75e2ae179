"""Time-dynamic workloads, registered on :data:`repro.sim.WORKLOADS`.

Static traces keep per-app skew constant for the whole replay; these two
generators do not, which is what cluster scenarios need to exercise
load imbalance that consistent hashing cannot smooth away:

* ``zipf-phases`` -- N tenants whose Zipf alpha and working set change
  at configurable request offsets (``params`` per app: ``phases`` -- a
  list of ``{"at": fraction, "alpha": ..., "keys": ..., "offset": ...}``
  dicts -- plus the usual ``num_keys``, ``alpha``, ``value_size``,
  ``set_fraction``, ``requests_per_app``, ``budget_fraction``). The
  default phase list shifts the working set to a disjoint key universe
  halfway through the stream.
* ``flash-crowd`` -- a Zipf base stream overlaid with a flash crowd: a
  tiny hot key set absorbs ``crowd_fraction`` of the requests inside
  ``[crowd_start, crowd_start + crowd_duration)``. Extra per-app params:
  ``crowd_keys``, ``crowd_fraction``, ``crowd_start``,
  ``crowd_duration``, ``crowd_alpha``.

Both are :class:`~repro.sim.workloads.TenantWorkload` instances, so
they validate parameters and key the trace cache exactly like the static
tenant workloads.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ConfigurationError
from repro.sim.workloads import (
    ZIPF_APP_DEFAULTS,
    TenantWorkload,
    zipf_reservation,
    zipf_stream,
)
from repro.workloads.generators import (
    FlashCrowdStream,
    PhasedZipfStream,
    ZipfPhase,
)
from repro.workloads.sizes import FixedSize

_PHASE_KEYS = {"at", "alpha", "keys", "offset"}


def _resolve_phases(
    phases, scale: float, default_alpha: float, default_keys: int
) -> List[ZipfPhase]:
    """Turn spec-level phase dicts into scaled :class:`ZipfPhase` objects.

    ``keys`` and ``offset`` are in unscaled key units and shrink under
    one common factor (floored so the smallest phase universe keeps >= 50
    keys), so a phase list that is disjoint at full scale stays disjoint
    at every scale: flooring both ends of each scaled range preserves
    ordering, and no per-phase clamp can push a universe past its
    neighbour's offset.
    """
    if phases is None:
        # Default: shift the working set to a disjoint universe halfway.
        phases = [
            {"at": 0.0},
            {"at": 0.5, "offset": default_keys},
        ]
    if not isinstance(phases, (list, tuple)) or not phases:
        raise ConfigurationError(
            f"phases must be a non-empty list of phase objects, "
            f"got {phases!r}"
        )
    parsed = []
    for spec in phases:
        if not isinstance(spec, dict):
            raise ConfigurationError(f"phase must be an object, got {spec!r}")
        unknown = set(spec) - _PHASE_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown phase fields: {', '.join(sorted(unknown))}"
            )
        if "at" not in spec:
            raise ConfigurationError(f"phase {spec!r} is missing 'at'")
        try:
            parsed.append(
                (
                    float(spec["at"]),
                    float(spec.get("alpha", default_alpha)),
                    int(spec.get("keys", default_keys)),
                    int(spec.get("offset", 0)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad phase {spec!r}: {exc}") from None
    smallest = min(keys for _, _, keys, _ in parsed)
    if smallest < 1:
        raise ConfigurationError(
            f"phase key universes must be >= 1, got {smallest}"
        )
    effective_scale = max(scale, 50.0 / smallest)
    return [
        ZipfPhase(
            start_fraction=at,
            alpha=alpha,
            num_keys=max(1, int(keys * effective_scale)),
            key_offset=max(0, int(offset * effective_scale)),
        )
        for at, alpha, keys, offset in parsed
    ]


def _phased_tenant(name, params, scale, seed):
    phases = _resolve_phases(
        params["phases"], scale, params["alpha"], params["num_keys"]
    )
    stream = PhasedZipfStream(
        app=name,
        phases=phases,
        size_model=FixedSize(params["value_size"]),
        set_fraction=params["set_fraction"],
        seed=seed,
    )
    # Reserve against the largest phase universe so later phases are
    # not implicitly starved.
    return stream, zipf_reservation(
        max(phase.num_keys for phase in phases),
        params["value_size"],
        params["budget_fraction"],
    )


TenantWorkload(
    "zipf-phases",
    _phased_tenant,
    {**ZIPF_APP_DEFAULTS, "phases": None},
    app_prefix="phased",
    default_count=2,
).register("Zipf tenants whose alpha/working set shift in phases")


def _flash_tenant(name, params, scale, seed):
    num_keys = max(50, int(params["num_keys"] * scale))
    base = zipf_stream(name, params, num_keys, seed)
    stream = FlashCrowdStream(
        app=name,
        base=base,
        size_model=base.size_model,
        crowd_keys=int(params["crowd_keys"]),
        crowd_fraction=float(params["crowd_fraction"]),
        crowd_start=float(params["crowd_start"]),
        crowd_duration=float(params["crowd_duration"]),
        crowd_alpha=float(params["crowd_alpha"]),
        seed=seed + 17,
    )
    return stream, zipf_reservation(
        num_keys, params["value_size"], params["budget_fraction"]
    )


TenantWorkload(
    "flash-crowd",
    _flash_tenant,
    {
        **ZIPF_APP_DEFAULTS,
        "crowd_keys": 8,
        "crowd_fraction": 0.8,
        "crowd_start": 0.4,
        "crowd_duration": 0.2,
        "crowd_alpha": 1.2,
    },
    app_prefix="flash",
    default_count=1,
).register("Zipf tenants plus a time-windowed hot-key overlay")
