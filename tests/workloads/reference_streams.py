"""Request-at-a-time oracle for the columnar stream generators.

Each function below is the body of a stream's former ``generate``
method, kept verbatim apart from nested streams being generated by this
module too: one frozen :class:`Request` per request, ``Phase`` weights
re-evaluated per request, and a ``heapq`` merge keyed on ``(time,
app)``. ``CompiledTrace.compile`` of the streams' ``columns`` must
equal ``CompiledTrace.compile`` of what this module yields, column by
column. :func:`iter_requests` goes the other way: it re-expands a
compiled trace into requests, for the round-trip tests.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.cache.stats import OP_NAMES
from repro.common.errors import ConfigurationError
from repro.workloads import facebook, generators
from repro.workloads.compiled import CompiledTrace
from repro.workloads.facebook import _etc_key_size
from repro.workloads.trace import Request
from repro.workloads.zipf import ZipfSampler


def iter_requests(trace: CompiledTrace) -> Iterator[Request]:
    """Re-expand a compiled trace into :class:`Request` objects, their
    fields plain ``float`` / ``int`` / ``str``."""
    for time, app_id, key, op, value_size, key_size in zip(
        trace.times.tolist(),
        trace.app_ids.tolist(),
        trace.keys.tolist(),
        trace.op_codes.tolist(),
        trace.value_sizes.tolist(),
        trace.key_sizes.tolist(),
    ):
        yield Request(
            time=time,
            app=trace.app_table[app_id],
            key=key,
            op=OP_NAMES[op],
            value_size=value_size,
            key_size=key_size,
        )


def merge_by_time(streams: Sequence[Iterable[Request]]) -> Iterator[Request]:
    """Merge independently-ordered per-app streams into one global trace.

    Each input stream must be internally time-ordered; the output is the
    time-ordered interleaving (stable across runs given identical inputs).
    """
    return heapq.merge(
        *streams, key=lambda request: (request.time, request.app)
    )


def generate(
    stream, num_requests: int, duration: float, start_time: float = 0.0
) -> Iterator[Request]:
    """``stream``'s requests, one object at a time."""
    return _BODIES[type(stream)](stream, num_requests, duration, start_time)


def _timestamps(
    num_requests: int, duration: float, start_time: float
) -> np.ndarray:
    if num_requests < 0:
        raise ConfigurationError("num_requests must be >= 0")
    if duration <= 0:
        raise ConfigurationError("duration must be positive")
    step = duration / max(1, num_requests)
    return start_time + step * np.arange(num_requests)


def _zipf(self, num_requests, duration, start_time=0.0):
    rng = np.random.default_rng(self.seed)
    sampler = ZipfSampler(self.num_keys, self.alpha, rng=rng)
    ranks = sampler.sample(num_requests)
    is_set = rng.random(num_requests) < self.set_fraction
    times = _timestamps(num_requests, duration, start_time)
    for i in range(num_requests):
        key = f"{self.app}:{self.namespace}:{ranks[i]}"
        yield Request(
            time=float(times[i]),
            app=self.app,
            key=key,
            op="set" if is_set[i] else "get",
            value_size=self.size_model.size_of(key),
        )


def _phased_zipf(self, num_requests, duration, start_time=0.0):
    rng = np.random.default_rng(self.seed)
    times = _timestamps(num_requests, duration, start_time)
    bounds = [
        min(num_requests, int(round(phase.start_fraction * num_requests)))
        for phase in self.phases
    ] + [num_requests]
    ranks = np.zeros(num_requests, dtype=np.int64)
    offsets = np.zeros(num_requests, dtype=np.int64)
    for index, phase in enumerate(self.phases):
        lo, hi = bounds[index], bounds[index + 1]
        if hi <= lo:
            continue
        sampler = ZipfSampler(phase.num_keys, phase.alpha, rng=rng)
        ranks[lo:hi] = sampler.sample(hi - lo)
        offsets[lo:hi] = phase.key_offset
    is_set = rng.random(num_requests) < self.set_fraction
    for i in range(num_requests):
        key = f"{self.app}:{self.namespace}:{offsets[i] + ranks[i]}"
        yield Request(
            time=float(times[i]),
            app=self.app,
            key=key,
            op="set" if is_set[i] else "get",
            value_size=self.size_model.size_of(key),
        )


def _flash_crowd(self, num_requests, duration, start_time=0.0):
    rng = np.random.default_rng(self.seed)
    coins = rng.random(num_requests)
    sampler = ZipfSampler(self.crowd_keys, self.crowd_alpha, rng=rng)
    crowd_ranks = sampler.sample(num_requests)
    times = _timestamps(num_requests, duration, start_time)
    window_lo = self.crowd_start
    window_hi = self.crowd_start + self.crowd_duration
    base_iter = iter(
        generate(self.base, num_requests, duration, start_time)
    )
    for i in range(num_requests):
        request = next(base_iter)
        fraction = i / max(1, num_requests - 1)
        if (
            window_lo <= fraction < window_hi
            and coins[i] < self.crowd_fraction
        ):
            key = f"{self.app}:{self.namespace}:{crowd_ranks[i]}"
            yield Request(
                time=float(times[i]),
                app=self.app,
                key=key,
                op=request.op,
                value_size=self.size_model.size_of(key),
            )
        else:
            yield request


def _reuse_distance(self, num_requests, duration, start_time=0.0):
    rng = np.random.default_rng(self.seed)
    times = _timestamps(num_requests, duration, start_time)
    # step -> list of (key_index, remaining_refs, interval); entries
    # falling due move to `ready`, which is drained one per request
    # (multiple keys due the same step queue up briefly -- the jitter
    # this adds to reuse distances is << sigma).
    due: dict = {}
    ready: deque = deque()
    head = 0

    def schedule(step: int, entry) -> None:
        bucket = due.get(step)
        if bucket is None:
            due[step] = [entry]
        else:
            bucket.append(entry)

    for i in range(num_requests):
        bucket = due.pop(i, None)
        if bucket:
            ready.extend(bucket)
        if ready:
            index, remaining, interval = ready.popleft()
            if remaining > 1:
                schedule(i + interval, (index, remaining - 1, interval))
        else:
            index = head
            head += 1
            interval = max(
                2, int(rng.normal(self.mean_items, self.sigma_items))
            )
            schedule(i + interval, (index, self.refs_per_key, interval))
        key = f"{self.app}:{self.namespace}:{index}"
        yield Request(
            time=float(times[i]),
            app=self.app,
            key=key,
            op="get",
            value_size=self.size_model.size_of(key),
        )


def _mixture(self, num_requests, duration, start_time=0.0):
    if not self.components:
        raise ConfigurationError("mixture has no components")
    rng = np.random.default_rng(self.seed)
    iterators = [
        iter(
            generate(
                component.stream, num_requests, duration, start_time
            )
        )
        for component in self.components
    ]
    times = _timestamps(num_requests, duration, start_time)
    uniforms = rng.random(num_requests)
    for i in range(num_requests):
        fraction = i / max(1, num_requests - 1)
        weights = np.array(
            [c.weight_at(fraction) for c in self.components]
        )
        total = weights.sum()
        if total <= 0:
            weights = np.ones(len(self.components))
            total = float(len(self.components))
        chosen = int(np.searchsorted(
            np.cumsum(weights / total), uniforms[i], side="left"
        ))
        chosen = min(chosen, len(iterators) - 1)
        try:
            request = next(iterators[chosen])
        except StopIteration:  # pragma: no cover - dense pre-generation
            continue
        # Re-stamp with the mixture's own clock so output is ordered.
        yield Request(
            time=float(times[i]),
            app=request.app,
            key=request.key,
            op=request.op,
            value_size=request.value_size,
            key_size=request.key_size,
        )


def _facebook_etc(self, num_requests, duration, start_time=0.0):
    rng = np.random.default_rng(self.seed)
    sampler = ZipfSampler(self.num_keys, self.alpha, rng=rng)
    ranks = sampler.sample(num_requests)
    is_get = rng.random(num_requests) < self.get_fraction
    times = _timestamps(num_requests, duration, start_time)
    for i in range(num_requests):
        key = f"{self.app}:fb:{ranks[i]}"
        yield Request(
            time=float(times[i]),
            app=self.app,
            key=key,
            op="get" if is_get[i] else "set",
            value_size=self._sizes.size_of(key),
            key_size=_etc_key_size(key),
        )


def _unique_key(self, num_requests, duration, start_time=0.0):
    rng = np.random.default_rng(self.seed)
    is_get = rng.random(num_requests) < self.get_fraction
    times = _timestamps(num_requests, duration, start_time)
    for i in range(num_requests):
        key = f"{self.app}:u:{self.seed}:{i}"
        yield Request(
            time=float(times[i]),
            app=self.app,
            key=key,
            op="get" if is_get[i] else "set",
            value_size=self._sizes.size_of(key),
            key_size=_etc_key_size(key),
        )


_BODIES = {
    generators.ZipfStream: _zipf,
    generators.PhasedZipfStream: _phased_zipf,
    generators.FlashCrowdStream: _flash_crowd,
    generators.ReuseDistanceStream: _reuse_distance,
    generators.MixtureStream: _mixture,
    facebook.FacebookETCStream: _facebook_etc,
    facebook.UniqueKeyStream: _unique_key,
}
