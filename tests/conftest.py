"""Shared test fixtures and helpers."""

from __future__ import annotations

import random

import pytest

from repro.cache.slabs import SlabGeometry
from repro.cache.stats import OP_CODES


@pytest.fixture
def geometry() -> SlabGeometry:
    return SlabGeometry.default()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC11FF)


def serve(engine, request) -> int:
    """Apply one ``Request`` to ``engine``: ``SlabGeometry.row`` for the
    sizes, then ``process_fast`` (a ``process_run`` of one row). Returns
    the packed outcome code; read it with the ``OUTCOME_*`` bits."""
    return engine.process_fast(
        request.key,
        OP_CODES[request.op],
        *engine.geometry.row(request.key_size, request.value_size),
    )


def zipf_keys(rng: random.Random, num_keys: int, count: int, alpha: float = 1.0):
    """Small pure-python zipf key stream for unit tests."""
    weights = [1.0 / (rank + 1) ** alpha for rank in range(num_keys)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    keys = []
    for _ in range(count):
        u = rng.random()
        lo, hi = 0, num_keys - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        keys.append(f"k{lo}")
    return keys
