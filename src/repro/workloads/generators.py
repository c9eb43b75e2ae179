"""Composable request-stream generators.

Each generator builds one application's time-ordered requests as
:class:`~repro.workloads.compiled.Columns` in one vectorised pass,
making each distinct key's string and sizes once;
:meth:`~repro.workloads.compiled.CompiledTrace.compile` merges per-app
columns by time, and :meth:`RequestStream.generate` hands the rows out
as :class:`~repro.workloads.trace.Request` objects. The two primitives
matter to the paper in different ways:

* :class:`ZipfStream` -- skewed reuse: concave hit-rate curves, the
  regime where plain hill climbing is provably near-optimal (section 4.1).
* :class:`ScanStream` -- cyclic sequential scans: the canonical
  performance-cliff generator ("Cliffs occur, for example, with
  sequential accesses under LRU ... increasing the cache size from 9 MB
  to 10 MB will increase the hit rate from 0% to 100%", section 3.5).

:class:`MixtureStream` interleaves components with (optionally
time-varying) weights, which is how the synthetic Memcachier applications
mix a hot Zipf head with a scanned corpus to carve a cliff into an
otherwise concave curve, and how the phase changes of sections 5.3-5.4
(popularity bursts shifting between slab classes) are produced.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.stats import OP_GET, OP_NAMES, OP_SET
from repro.common.errors import ConfigurationError
from repro.workloads.compiled import COLUMN_DTYPES, Columns
from repro.workloads.sizes import SizeModel
from repro.workloads.trace import Request
from repro.workloads.zipf import ZipfSampler


class RequestStream(abc.ABC):
    """A finite, time-ordered request stream for one application."""

    app: str

    @abc.abstractmethod
    def columns(self, num_requests: int, duration: float, start_time: float = 0.0) -> Columns:
        """The ``num_requests`` requests spread over ``duration`` seconds
        starting at ``start_time``."""

    def generate(
        self, num_requests: int, duration: float, start_time: float = 0.0
    ) -> Iterator[Request]:
        """The rows of :meth:`columns` as :class:`Request` objects."""
        own = self.columns(num_requests, duration, start_time)
        rows = (own.times, own.key_ids, own.op_codes, own.value_sizes, own.key_sizes)
        for time, key_id, op, value_size, key_size in zip(*(c.tolist() for c in rows)):
            yield Request(time, own.app, own.key_table[key_id], OP_NAMES[op], value_size, key_size)


def _timestamps(
    num_requests: int, duration: float, start_time: float
) -> np.ndarray:
    if num_requests < 0:
        raise ConfigurationError("num_requests must be >= 0")
    if duration <= 0:
        raise ConfigurationError("duration must be positive")
    step = duration / max(1, num_requests)
    return start_time + step * np.arange(num_requests)


def _keyed(
    stream, ids: np.ndarray, times: np.ndarray, op_codes: np.ndarray,
    namespace: Optional[str] = None, value_size: Optional[Callable[[str], int]] = None,
    key_size: Callable[[str], int] = len,
) -> Columns:
    """``stream``'s rows keyed ``f"{app}:{namespace}:{ids[i]}"`` (by
    default its own namespace and size model), making each distinct
    key's string and sizes once."""
    prefix = f"{stream.app}:{stream.namespace if namespace is None else namespace}:"
    distinct, key_ids = np.unique(ids, return_inverse=True)
    table = [f"{prefix}{i}" for i in distinct.tolist()]
    values = map(value_size or stream.size_model.size_of, table)
    return Columns(
        stream.app, times, table, key_ids, op_codes.astype(np.int8),
        np.fromiter(values, np.int64, len(table))[key_ids],
        np.fromiter(map(key_size, table), np.int64, len(table))[key_ids],
    )


def _assemble(
    app: str, times: np.ndarray,
    pieces: Sequence[Tuple[np.ndarray, Columns, Union[slice, np.ndarray]]],
) -> Columns:
    """Columns whose rows ``out`` are ``part``'s rows ``taken`` for each
    ``(out, part, taken)`` piece, over the parts' concatenated tables."""
    table: List[str] = []
    out = {name: np.empty(len(times), COLUMN_DTYPES[name]) for name in Columns._fields[3:]}
    for rows, part, taken in pieces:
        for name, column in out.items():
            column[rows] = getattr(part, name)[taken]
        out["key_ids"][rows] += len(table)
        table += part.key_table
    return Columns(app, times, table, **out)


@dataclass
class ZipfStream(RequestStream):
    """Zipf-popular GETs (with an optional SET fraction) over a fixed
    key universe."""

    app: str
    num_keys: int
    alpha: float
    size_model: SizeModel
    namespace: str = "z"
    set_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.set_fraction <= 1.0:
            raise ConfigurationError(
                f"set_fraction must be in [0, 1]: {self.set_fraction}"
            )

    def columns(self, num_requests: int, duration: float, start_time: float = 0.0) -> Columns:
        rng = np.random.default_rng(self.seed)
        sampler = ZipfSampler(self.num_keys, self.alpha, rng=rng)
        ranks = sampler.sample(num_requests)
        is_set = rng.random(num_requests) < self.set_fraction
        times = _timestamps(num_requests, duration, start_time)
        return _keyed(self, ranks, times, np.where(is_set, OP_SET, OP_GET))


@dataclass(frozen=True)
class ZipfPhase:
    """One phase of a :class:`PhasedZipfStream`.

    From ``start_fraction`` of the stream onward (until the next phase),
    ranks are drawn Zipf(``alpha``) over ``num_keys`` keys shifted by
    ``key_offset`` in the app's key space -- ``key_offset`` is what
    moves the working set, ``alpha``/``num_keys`` what reshape it.
    """

    start_fraction: float
    alpha: float
    num_keys: int
    key_offset: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_fraction < 1.0:
            raise ConfigurationError(
                f"phase start_fraction must be in [0, 1), "
                f"got {self.start_fraction}"
            )
        if self.alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {self.alpha}")
        if self.num_keys < 1:
            raise ConfigurationError(
                f"num_keys must be >= 1, got {self.num_keys}"
            )
        if self.key_offset < 0:
            raise ConfigurationError(
                f"key_offset must be >= 0, got {self.key_offset}"
            )


@dataclass
class PhasedZipfStream(RequestStream):
    """A Zipf stream whose skew and working set shift at request offsets.

    Static traces cannot exercise the regimes the paper highlights --
    "applications 9 and 18 ... their hit rate curves change throughout
    the week" -- nor give a cluster layer time-varying per-shard skew.
    Each :class:`ZipfPhase` owns a contiguous request range; at a phase
    boundary the sampler switches alpha/universe instantly, the sharpest
    (hardest) version of a workload change.
    """

    app: str
    phases: Sequence[ZipfPhase]
    size_model: SizeModel
    namespace: str = "p"
    set_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError("phased stream needs at least one phase")
        starts = [phase.start_fraction for phase in self.phases]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ConfigurationError(
                f"phase start_fractions must be strictly increasing: {starts}"
            )
        if starts[0] != 0.0:
            raise ConfigurationError(
                f"the first phase must start at 0.0, got {starts[0]}"
            )
        if not 0.0 <= self.set_fraction <= 1.0:
            raise ConfigurationError(
                f"set_fraction must be in [0, 1]: {self.set_fraction}"
            )

    def columns(self, num_requests: int, duration: float, start_time: float = 0.0) -> Columns:
        rng = np.random.default_rng(self.seed)
        times = _timestamps(num_requests, duration, start_time)
        bounds = [
            min(num_requests, int(round(phase.start_fraction * num_requests)))
            for phase in self.phases
        ] + [num_requests]
        ids = np.zeros(num_requests, dtype=np.int64)
        for index, phase in enumerate(self.phases):
            lo, hi = bounds[index], bounds[index + 1]
            if hi <= lo:
                continue
            sampler = ZipfSampler(phase.num_keys, phase.alpha, rng=rng)
            ids[lo:hi] = sampler.sample(hi - lo) + phase.key_offset
        is_set = rng.random(num_requests) < self.set_fraction
        return _keyed(self, ids, times, np.where(is_set, OP_SET, OP_GET))


@dataclass
class FlashCrowdStream(RequestStream):
    """A base stream overlaid with a flash crowd.

    Inside the window ``[crowd_start, crowd_start + crowd_duration)``
    (trace fractions) each request is redirected with probability
    ``crowd_fraction`` to a tiny hot key set in its own namespace --
    the "everyone loads the same page" burst. Outside the window the
    base stream passes through untouched, so the crowd's footprint is
    strictly time-local. Because the crowd keys all hash to a handful of
    cluster shards, this is the canonical hot-shard generator.
    """

    app: str
    base: RequestStream
    size_model: SizeModel
    crowd_keys: int = 8
    crowd_fraction: float = 0.8
    crowd_start: float = 0.4
    crowd_duration: float = 0.2
    crowd_alpha: float = 1.2
    namespace: str = "flash"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base.app != self.app:
            raise ConfigurationError(f"base stream is {self.base.app!r}'s, not {self.app!r}'s")
        if self.crowd_keys < 1:
            raise ConfigurationError(
                f"crowd_keys must be >= 1, got {self.crowd_keys}"
            )
        if not 0.0 <= self.crowd_fraction <= 1.0:
            raise ConfigurationError(
                f"crowd_fraction must be in [0, 1]: {self.crowd_fraction}"
            )
        if not 0.0 <= self.crowd_start < 1.0:
            raise ConfigurationError(
                f"crowd_start must be in [0, 1): {self.crowd_start}"
            )
        if (
            self.crowd_duration <= 0
            or self.crowd_start + self.crowd_duration > 1.0
        ):
            raise ConfigurationError(
                f"crowd window [{self.crowd_start}, "
                f"{self.crowd_start + self.crowd_duration}] must fit in "
                f"[0, 1]"
            )

    def columns(self, num_requests: int, duration: float, start_time: float = 0.0) -> Columns:
        rng = np.random.default_rng(self.seed)
        coins = rng.random(num_requests)
        sampler = ZipfSampler(self.crowd_keys, self.crowd_alpha, rng=rng)
        crowd_ranks = sampler.sample(num_requests)
        times = _timestamps(num_requests, duration, start_time)
        base = self.base.columns(num_requests, duration, start_time)
        fraction = np.arange(num_requests) / max(1, num_requests - 1)
        lo, hi = self.crowd_start, self.crowd_start + self.crowd_duration
        in_crowd = (lo <= fraction) & (fraction < hi) & (coins < self.crowd_fraction)
        rows, kept = np.flatnonzero(in_crowd), np.flatnonzero(~in_crowd)
        crowd = _keyed(self, crowd_ranks[rows], times[rows], base.op_codes[rows])
        return _assemble(self.app, times, [(kept, base, kept), (rows, crowd, slice(None))])


@dataclass
class ScanStream(RequestStream):
    """A cyclic sequential scan over ``num_keys`` keys.

    Under LRU this is the adversarial pattern: with fewer than
    ``num_keys`` cache slots the hit rate is ~0, with ``num_keys`` slots
    it is ~1 -- a cliff exactly at the scan length.
    """

    app: str
    num_keys: int
    size_model: SizeModel
    namespace: str = "s"
    start_offset: int = 0
    seed: int = 0  # unused; kept for interface uniformity

    def __post_init__(self) -> None:
        if self.num_keys < 1:
            raise ConfigurationError(f"num_keys must be >= 1, got {self.num_keys}")

    def columns(self, num_requests: int, duration: float, start_time: float = 0.0) -> Columns:
        times = _timestamps(num_requests, duration, start_time)
        positions = (self.start_offset + np.arange(num_requests)) % self.num_keys
        return _keyed(self, positions, times, np.full(num_requests, OP_GET))


@dataclass
class ReuseDistanceStream(RequestStream):
    """Requests with normally distributed reuse distances: a smooth cliff.

    Every key is re-referenced ``refs_per_key`` times at a fixed per-key
    interval ``D ~ N(mean_items, sigma_items)`` (in requests). Because new
    keys are introduced whenever no re-reference is due, roughly every key
    touched inside a window of ``D`` requests is distinct, so the *stack
    distance* of each re-reference is ~``D`` items. The hit-rate curve is
    therefore the Gaussian CDF scaled by ``refs_per_key/(refs_per_key+1)``:
    flat near zero, a smooth **convex ramp** (the performance cliff)
    centered at ``mean_items``, then a plateau -- the Figure 3 shape.

    A pure cyclic scan also has a cliff, but its stack distances are a
    delta spike, which Cliffhanger's finite probes can never observe from
    a distance; this stream is the probe-discoverable cliff that real web
    workloads (and the paper's traces) exhibit.
    """

    app: str
    mean_items: int
    sigma_items: int
    size_model: SizeModel
    refs_per_key: int = 9
    namespace: str = "r"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mean_items < 2 or self.sigma_items < 1:
            raise ConfigurationError(
                "mean_items must be >= 2 and sigma_items >= 1"
            )
        if self.refs_per_key < 1:
            raise ConfigurationError("refs_per_key must be >= 1")

    def columns(self, num_requests: int, duration: float, start_time: float = 0.0) -> Columns:
        rng = np.random.default_rng(self.seed)
        times = _timestamps(num_requests, duration, start_time)
        # The k-th new key's interval is the k-th normal draw, truncated
        # toward zero, at least 2: what one draw per new key would give.
        normals = rng.normal(self.mean_items, self.sigma_items, num_requests)
        intervals = np.maximum(2, normals.astype(np.int64)).tolist()
        # step -> [(key_index, remaining_refs, interval)]; entries falling
        # due queue in `ready`, drained one per request (jitter << sigma).
        due: Dict[int, list] = {}
        ready: deque = deque()
        indices: List[int] = []
        head = 0
        for i in range(num_requests):
            bucket = due.pop(i, None)
            if bucket:
                ready.extend(bucket)
            if ready:
                index, remaining, interval = ready.popleft()
                remaining -= 1
            else:
                index, interval, remaining = head, intervals[head], self.refs_per_key
                head += 1
            indices.append(index)
            if remaining:
                due.setdefault(i + interval, []).append((index, remaining, interval))
        ids = np.array(indices, dtype=np.int64)
        return _keyed(self, ids, times, np.full(num_requests, OP_GET))


@dataclass(frozen=True)
class Phase:
    """A time window (fractions of the trace) scaling a component's
    weight; models the request bursts of sections 5.3-5.4."""

    start_fraction: float
    end_fraction: float
    multiplier: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_fraction < self.end_fraction <= 1.0:
            raise ConfigurationError(
                f"bad phase window [{self.start_fraction}, "
                f"{self.end_fraction}]"
            )
        if self.multiplier < 0:
            raise ConfigurationError("phase multiplier must be >= 0")


@dataclass
class Component:
    """One weighted member of a :class:`MixtureStream`."""

    stream: RequestStream
    weight: float
    phases: Tuple[Phase, ...] = ()

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ConfigurationError(f"weight must be >= 0, got {self.weight}")

    def weight_at(self, trace_fraction: float) -> float:
        for phase in self.phases:
            if phase.start_fraction <= trace_fraction < phase.end_fraction:
                return self.weight * phase.multiplier
        return self.weight


@dataclass
class MixtureStream(RequestStream):
    """Interleaves component streams with (time-varying) weights.

    Each component's stream is generated densely and consumed in order,
    so a component that only bursts briefly still walks its own key
    sequence coherently (a scan stays sequential).
    """

    app: str
    components: List[Component] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        apps = {component.stream.app for component in self.components} - {self.app}
        if apps:
            raise ConfigurationError(f"components of {sorted(apps)}, not {self.app!r}")

    def columns(self, num_requests: int, duration: float, start_time: float = 0.0) -> Columns:
        if not self.components:
            raise ConfigurationError("mixture has no components")
        rng = np.random.default_rng(self.seed)
        times = _timestamps(num_requests, duration, start_time)
        uniforms = rng.random(num_requests)
        # Row i sits at trace fraction i / max(1, n - 1); weights change
        # only where a fraction reaches a phase bound, so each segment
        # between two such rows draws with one cumulative table.
        phases = [phase for component in self.components for phase in component.phases]
        bounds = [p.start_fraction for p in phases] + [p.end_fraction for p in phases]
        scale = max(1, num_requests - 1)
        edges = np.searchsorted(np.arange(num_requests) / scale, bounds).tolist()
        edges = sorted(set(edges) | {0, num_requests})
        chosen = np.empty(num_requests, dtype=np.int64)
        for lo, hi in zip(edges, edges[1:]):
            weights = np.array([c.weight_at(lo / scale) for c in self.components])
            total = weights.sum()
            if total <= 0:
                weights = np.ones(len(self.components))
                total = float(len(self.components))
            picks = np.searchsorted(np.cumsum(weights / total), uniforms[lo:hi], side="left")
            chosen[lo:hi] = np.minimum(picks, len(self.components) - 1)
        pieces = []
        for index, component in enumerate(self.components):
            rows = np.flatnonzero(chosen == index)
            part = component.stream.columns(num_requests, duration, start_time)
            pieces.append((rows, part, slice(rows.size)))
        return _assemble(self.app, times, pieces)
