"""The four workloads: what traffic each one is, and why.

A workload is one seeded request sequence. Every workload is replayed
offline (single server, then a four-shard cluster) and served live over
loopback TCP, so every end-to-end metric exists on every workload; the
workloads differ in the properties of the traffic the program's
behaviour depends on -- tenants, size classes, read/write share, how
much of the key universe the cache can hold.

Two of the sequences come from the repository's own generators (they
are the ``workloads`` layer, and generating them is part of
``setup_s``); two are generated here, outside the program, from the
seed. Either way the same sequence feeds the offline replays (as a
``CompiledTrace``) and the wire (as a :class:`wire.Stream`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import wire

#: Requests of a generated mix that are compiled into the offline trace.
MIX_OFFLINE_REQUESTS = 120_000
#: Keys per tenant of ``repro.serve --workload zipf --scale 1.0``.
MIX_KEYS_PER_TENANT = 40_000
MIX_TENANTS = ("zipf01", "zipf02")


@dataclass(frozen=True)
class Mix:
    """A serve traffic mix generated by the ledger."""

    get_share: float
    set_share: float  # the rest are DELETEs
    #: (low, high) bytes: each key's object size, log-uniform across
    #: keys; equal bounds mean one fixed size.
    value_bytes: Tuple[int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``python -m repro.serve --workload ... --scale ...``: the tenants
    #: and budgets of the live server, which the offline engines share.
    server_workload: str
    server_scale: float
    #: ``load_workload`` parameters when the repository generates the
    #: sequence; None when ``mix`` does.
    loader_params: Optional[Dict[str, object]]
    mix: Optional[Mix]
    #: Open-loop offered rates, requests per second.
    lo_rps: int
    hi_rps: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="replay_paper",
            why=(
                "the paper's 20-app Memcachier trace at the repo's bench "
                "scale: ten slab classes, cache far below working set, "
                "all GETs - engines and cliff scaling do the work"
            ),
            server_workload="memcachier",
            server_scale=0.03,
            loader_params={},
            mix=None,
            lo_rps=10_000,
            hi_rps=20_000,
        ),
        Workload(
            name="cluster_replay",
            why=(
                "two Zipf(1.0) tenants, 10% SETs, one size class, cache "
                "= 25% of keys: per-request engine work is minimal, so "
                "routing, partitioning and barriers show"
            ),
            server_workload="zipf",
            server_scale=0.625,
            loader_params={
                "apps": 2,
                "num_keys": 25_000,
                "alpha": 1.0,
                "requests_per_app": 60_000,
                "budget_fraction": 0.25,
                "set_fraction": 0.1,
            },
            mix=None,
            lo_rps=10_000,
            hi_rps=20_000,
        ),
        Workload(
            name="serve_read",
            why=(
                "what an operator feels on a read-heavy cache: 95% GET / "
                "5% SET of 256 B over 2 x 40k Zipf keys - parse, queue "
                "hop, batch execute and encode dominate"
            ),
            server_workload="zipf",
            server_scale=1.0,
            loader_params=None,
            mix=Mix(0.95, 0.05, (256, 256)),
            lo_rps=10_000,
            hi_rps=20_000,
        ),
        Workload(
            name="serve_write",
            why=(
                "45% GET / 50% SET / 5% DELETE, objects 64 B-8 KiB: SET "
                "data-block parsing, value-store writes, large VALUE "
                "encodes, slab stealing and eviction across 8 classes"
            ),
            server_workload="zipf",
            server_scale=1.0,
            loader_params=None,
            mix=Mix(0.45, 0.50, (64, 8192)),
            lo_rps=6_000,
            hi_rps=12_000,
        ),
    )
}


@dataclass(frozen=True)
class Sizes:
    """What ``--smoke`` shrinks."""

    #: Multiplies trace scale / request counts.
    trace_factor: float
    warmup_requests: int
    #: Upper bound on what the closed loop can send per second.
    closed_rps_cap: int
    #: Multiplies the open-loop rates.
    rate_factor: float
    #: Fresh-cache set-ups timed per run; ``setup_s`` is their median.
    setup_repetitions: int
    #: Fewest repetitions of each timed offline phase.
    min_repetitions: int


FULL = Sizes(1.0, 40_000, 60_000, 1.0, 2, 4)
SMOKE = Sizes(0.08, 1_500, 60_000, 0.2, 1, 2)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def server_scale(workload: Workload, sizes: Sizes) -> float:
    """``--scale`` of the live server: ``--smoke`` shrinks its key
    universes and budgets along with the traces."""
    return workload.server_scale * sizes.trace_factor


def load_trace(workload: Workload, seed: int, sizes: Sizes):
    """The workload's loaded trace (``compiled``, ``reservations``,
    ``scale``), through the repository's ``load_workload`` so that a
    cold call pays generate + compile + cache store."""
    from repro.sim import SyntheticTrace, load_workload

    factor = sizes.trace_factor
    if workload.mix is None:
        params = dict(workload.loader_params)
        if "requests_per_app" in params:
            # The Zipf loader's own ``scale`` stays 1: its parameters
            # are given in full, so they are what shrinks.
            params["requests_per_app"] = int(params["requests_per_app"] * factor)
            params["num_keys"] = int(params["num_keys"] * factor)
            scale = 1.0
        else:
            scale = server_scale(workload, sizes)
            if factor < 1.0:
                # The Memcachier generator has a floor of ~90k requests
                # however small the scale; six of its twenty apps keep
                # a smoke run short. (The server still hosts all twenty:
                # its command line has no way to say otherwise.)
                params["apps"] = [1, 2, 3, 4, 5, 6]
        return load_workload(
            workload.server_workload, scale=scale, seed=seed, **params
        )
    # A generated mix borrows the tenants' reservations from the very
    # workload the live server is started with (this is also what warms
    # the trace cache the server's start-up reads).
    tenants = load_workload(
        workload.server_workload, scale=server_scale(workload, sizes), seed=seed
    )
    stream = mix_stream(workload.mix, seed, int(MIX_OFFLINE_REQUESTS * factor), sizes)
    return SyntheticTrace(
        scale=server_scale(workload, sizes),
        seed=seed,
        reservations=dict(tenants.reservations),
        requests_per_app={},
        compiled=compile_stream(stream),
    )


def mix_stream(mix: Mix, seed: int, count: int, sizes: Sizes) -> wire.Stream:
    """``count`` requests of a generated mix. Deterministic in
    ``(mix, seed, sizes)``; a longer stream extends a shorter one."""
    keys = int(MIX_KEYS_PER_TENANT * sizes.trace_factor)
    rng = np.random.default_rng([seed, 0xC11F])
    weights = 1.0 / np.arange(1, keys + 1, dtype=np.float64)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    low, high = mix.value_bytes
    size_of_key = np.exp(
        rng.uniform(np.log(low), np.log(high), keys * len(MIX_TENANTS))
    ).astype(np.int64)
    # Drawn in fixed-size blocks so that a prefix does not depend on
    # how many requests were asked for.
    block = 50_000
    key_ids: List[np.ndarray] = []
    ops: List[np.ndarray] = []
    for _ in range(-(-count // block)):
        ranks = np.searchsorted(cdf, rng.random(block))
        tenant = rng.integers(0, len(MIX_TENANTS), block)
        key_ids.append(tenant * keys + np.minimum(ranks, keys - 1))
        draw = rng.random(block)
        ops.append(
            np.where(
                draw < mix.get_share,
                wire.GET,
                np.where(
                    draw < mix.get_share + mix.set_share,
                    wire.SET,
                    wire.DELETE,
                ),
            )
        )
    all_keys = np.concatenate(key_ids)[:count]
    key_table = [
        f"{tenant}:b:{rank}" for tenant in MIX_TENANTS for rank in range(keys)
    ]
    return wire.Stream(
        key_table,
        all_keys,
        np.concatenate(ops)[:count],
        size_of_key[all_keys],
        seed,
    )


def trace_stream(compiled, seed: int, count: int) -> wire.Stream:
    """The compiled trace's own requests as a wire stream, repeated
    from the start as often as ``count`` needs."""
    repeats = -(-count // len(compiled))
    key_ids = (list(compiled.key_ids) * repeats)[:count]
    ops = (list(compiled.op_codes) * repeats)[:count]
    sizes = (list(compiled.value_sizes) * repeats)[:count]
    return wire.Stream(list(compiled.key_table), key_ids, ops, sizes, seed)


def compile_stream(stream: wire.Stream):
    """A wire stream as the ``CompiledTrace`` the offline replays take."""
    from repro.sim import GEOMETRY
    from repro.workloads.compiled import CompiledTrace
    from repro.workloads.trace import OPS, Request

    table = stream.key_table
    apps = [key.partition(":")[0] for key in table]
    return CompiledTrace.compile(
        (
            Request(
                time=float(index),
                app=apps[key_id],
                key=table[key_id],
                op=OPS[op],
                value_size=size,
            )
            for index, (key_id, op, size) in enumerate(
                zip(stream.key_ids, stream.ops, stream.sizes)
            )
        ),
        GEOMETRY,
    )
