"""Pins for the shared tenant-workload loader.

The four tenant workloads (``zipf``, ``facebook``, ``zipf-phases``,
``flash-crowd``) are built by one loader
(:func:`repro.sim.workloads.register_tenant_workload`). Their
trace-cache keys and generated traces must not move when that loader is
refactored -- a changed key silently cold-starts every warm cache, a
changed stream silently changes every table. The values below were
recorded at seed 0 from the four hand-written loaders the shared one
replaced. ``memcachier`` is pinned the same way at the experiments'
smallest scale (0.012) and the ledger's ``replay_paper`` scale (0.03),
with values recorded from the request-at-a-time generators the columnar
ones replaced.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.sim import load_workload
from repro.workloads.compiled import GLOBAL_TRACE_CACHE

SCALE = 0.05

#: workload -> (default params, spec-wide + per-app override params).
PARAMS = {
    "zipf": (
        {},
        {
            "apps": {"a": {"alpha": 0.8, "num_keys": 3000}, "b": {}},
            "set_fraction": 0.1,
            "requests_per_app": 20000,
        },
    ),
    "facebook": (
        {},
        {
            "apps": {"etc": {"num_keys": 5000}, "uniq": {"unique_keys": True}},
            "requests_per_app": 20000,
        },
    ),
    "zipf-phases": (
        {},
        {
            "apps": {
                "p": {
                    "phases": [
                        {"at": 0.0},
                        {"at": 0.3, "alpha": 0.7, "offset": 9000},
                    ]
                },
                "q": {"value_size": 512},
            },
            "num_keys": 9000,
            "requests_per_app": 20000,
        },
    ),
    "flash-crowd": (
        {},
        {
            "apps": {"f": {"crowd_keys": 4, "crowd_start": 0.2}, "g": {}},
            "num_keys": 9000,
            "requests_per_app": 20000,
        },
    ),
}

#: (workload, case) -> (cache key, requests, routing digest, column hash).
RECORDED = {
    ("zipf", 0): (
        "zipf-scale0.05-seed0-1f71dda6452299dbda4523bbe88dc534",
        15000,
        "f9e1136654144856380c00fbebcef007",
        "b43e7239f68f5cc27d4691b8afad33e0",
    ),
    ("zipf", 1): (
        "zipf-scale0.05-seed0-b39296f6908d35971afb7bf618932e2d",
        2000,
        "8926486593fd5d6ca99acadb3de833eb",
        "cfd100853ca9cd8a3370bd7ba11ed689",
    ),
    ("facebook", 0): (
        "facebook-scale0.05-seed0-e300cde0dd326f42317f1731314f7f41",
        10000,
        "2953f073584df8a4487609b74691573b",
        "b234d7e9ada7fbac30690e6870b86713",
    ),
    ("facebook", 1): (
        "facebook-scale0.05-seed0-98c2e362c6b53831c29e5d0da71eccd2",
        2000,
        "96eb42fa08f0b99364062988cef6571a",
        "0449556fc61eab1677199a757423e4e1",
    ),
    ("zipf-phases", 0): (
        "zipfphases-scale0.05-seed0-84f6605a019d76911ae5771a0e0de29e",
        15000,
        "1274f53ed6b8b85b0beb68390ae35907",
        "bb2046e26c6059ed254526249096cefb",
    ),
    ("zipf-phases", 1): (
        "zipfphases-scale0.05-seed0-2b26765deecb0de5ea034651bd5a848c",
        2000,
        "cf3233656fbcd7b938a92479c288bf5b",
        "5fbb97ec21001507caa62fab25eb0b03",
    ),
    ("flash-crowd", 0): (
        "flashcrowd-scale0.05-seed0-83d6b66f2800e03c6a5d67037cc096c3",
        7500,
        "ad897949dc51e431d407683ed85a11e1",
        "df91847d9b331ba33bf3af69fb4f7e1b",
    ),
    ("flash-crowd", 1): (
        "flashcrowd-scale0.05-seed0-e82b7d22fc925b1d0572687086cc9dea",
        2000,
        "4ff023b28fed40504c96ed6eba7026ca",
        "bda8d79851eb6f6b87294f9bfee2ee52",
    ),
}

#: scale -> ``load_workload("memcachier", scale=scale, seed=0)``'s
#: (requests, routing digest, column hash).
MEMCACHIER = {
    0.012: (
        94650,
        "81c15120c5a3596bc2faaee3efa96a2b",
        "d20a4cef94115293910353f0b198c899",
    ),
    0.03: (
        112985,
        "0d908a68fcc4f8d7dff768353524a53a",
        "4de917424a212a128c330a3b02d72b43",
    ),
}


def column_hash(compiled) -> str:
    """Everything a replay reads besides the routed keys: ops, sizes,
    slab classes, apps and timestamps."""
    digest = hashlib.sha256()
    for column in (
        compiled.op_codes,
        compiled.value_sizes,
        compiled.key_sizes,
        compiled.slab_classes,
        compiled.app_ids,
    ):
        digest.update(np.asarray(column, dtype=np.int64).tobytes())
    digest.update(np.asarray(compiled.times, dtype=np.float64).tobytes())
    digest.update("|".join(compiled.app_table).encode())
    return digest.hexdigest()[:32]


def observe(workload: str, case: int, monkeypatch):
    keys = []
    compile_ = GLOBAL_TRACE_CACHE.get_or_compile

    def recording(key, *args, **kwargs):
        keys.append(key)
        return compile_(key, *args, **kwargs)

    monkeypatch.setattr(GLOBAL_TRACE_CACHE, "get_or_compile", recording)
    trace = load_workload(workload, scale=SCALE, seed=0, **PARAMS[workload][case])
    compiled = trace.compiled
    assert sum(trace.requests_per_app.values()) == len(compiled)
    assert list(trace.reservations) == compiled.app_table
    (key,) = keys
    return (
        key,
        len(compiled),
        compiled.routing_digest(),
        column_hash(compiled),
    )


@pytest.mark.parametrize("workload, case", sorted(RECORDED))
def test_cache_key_and_trace_are_pinned(workload, case, monkeypatch):
    assert observe(workload, case, monkeypatch) == RECORDED[workload, case]


def test_every_tenant_workload_is_pinned_both_ways():
    assert sorted(RECORDED) == sorted(
        (workload, case) for workload in PARAMS for case in (0, 1)
    )


@pytest.mark.parametrize("scale", sorted(MEMCACHIER))
def test_memcachier_trace_is_pinned(scale):
    compiled = load_workload("memcachier", scale=scale, seed=0).compiled
    assert (
        len(compiled), compiled.routing_digest(), column_hash(compiled)
    ) == MEMCACHIER[scale]
