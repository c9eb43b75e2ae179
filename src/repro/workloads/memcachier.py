"""The synthetic 20-application "Memcachier-like" trace.

The paper's evaluation replays a proprietary week-long trace of the top 20
applications of Memcachier. This module synthesizes a stand-in with the
same *structure* (README, "Substitutions", item 1):

* per-application memory reservations and request shares;
* per-application slab-class footprints (size mixes) chosen to reproduce
  the paper's allocation pathologies -- e.g. application 4's and 6's
  large-item classes crowding out hot small-item classes (Table 1);
* performance cliffs in the six applications the paper stars
  (1, 7, 10, 11, 18, 19) by blending sequential scans into otherwise
  concave Zipf workloads (sections 3.5, Figure 3);
* phase changes (popularity bursts moving between slab classes) in
  applications 5, 9 and 19, which reward incremental algorithms over the
  week-long-profile solver (sections 5.2-5.4, Figure 8).

Reservations are *calibrated analytically*: given a Zipf component we
compute the cache size whose popularity mass equals the target default
hit rate, then set the reservation around it. Absolute hit rates will not
match Memcachier's (different universe), but the orderings the paper
reports -- who has headroom, where the solver fails, where cliffs bite --
are reproduced by construction. ``scale`` shrinks key universes,
reservations and request counts together, which approximately preserves
those relationships at a fraction of the replay cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.common.constants import ITEM_OVERHEAD_BYTES
from repro.common.errors import ConfigurationError
from repro.cache.slabs import SlabGeometry
from repro.workloads.compiled import Columns
from repro.workloads.generators import (
    Component,
    MixtureStream,
    Phase,
    RequestStream,
    ReuseDistanceStream,
    ZipfStream,
)
from repro.workloads.sizes import FixedSize

#: Simulated trace duration: one week, like the paper's trace.
WEEK_SECONDS = 7 * 24 * 3600.0

#: Total requests across all applications at scale=1.0.
BASE_TOTAL_REQUESTS = 2_000_000

#: Average key length of generated keys ("app07:z:12345" ~ 14 bytes),
#: matching the Memcachier average the paper reports (section 5.7).
_GEOMETRY = SlabGeometry.default()


def value_size_for_class(class_index: int, key_bytes: int = 14) -> int:
    """A value size that lands items squarely in ``class_index``."""
    chunk = _GEOMETRY.chunk_size(class_index)
    value = int(chunk * 0.75) - key_bytes - ITEM_OVERHEAD_BYTES
    return max(1, value)


def zipf_cache_for_hit_rate(
    num_keys: int, alpha: float, target_hit_rate: float
) -> int:
    """Smallest key count whose Zipf popularity mass >= the target.

    An LRU holding the hottest C keys of a Zipf(alpha) stream hits with
    probability ~ mass(top C); inverting that gives the cache size a
    desired default hit rate needs. Used to place reservations relative
    to working sets.
    """
    if not 0.0 < target_hit_rate <= 1.0:
        raise ConfigurationError(
            f"target hit rate must be in (0, 1]: {target_hit_rate}"
        )
    weights = 1.0 / np.power(np.arange(1, num_keys + 1, dtype=float), alpha)
    mass = np.cumsum(weights)
    mass /= mass[-1]
    return int(np.searchsorted(mass, target_hit_rate)) + 1


@dataclass(frozen=True)
class AppSpec:
    """Static description of one synthetic application.

    ``factory(scale, seed)`` returns the request stream and the
    reservation in bytes for that scale. ``min_requests`` floors the
    app's request count regardless of scale: cliff applications need
    enough requests for their reuse-distance cycles to reach steady
    state (roughly ``cliff_center x refs_per_key x 3``), and the key
    universes themselves are floored at small scales.
    """

    index: int
    share: float
    has_cliff: bool
    summary: str
    factory: Callable[[float, int], Tuple[RequestStream, float]]
    min_requests: int = 1000

    @property
    def name(self) -> str:
        return f"app{self.index:02d}"


def _keys(scale: float, base: int, minimum: int = 200) -> int:
    return max(minimum, int(base * scale))


def _chunk_bytes(class_index: int, items: float) -> float:
    return _GEOMETRY.chunk_size(class_index) * items


# ---------------------------------------------------------------------------
# Application factories. Index comments give the paper behaviour each one
# is shaped to echo.
# ---------------------------------------------------------------------------


def _plain_zipf_app(
    index: int,
    base_keys: int,
    alpha: float,
    class_index: int,
    target_default_hit_rate: float,
    reservation_slack: float = 1.0,
) -> Callable[[float, int], Tuple[RequestStream, float]]:
    """A single-class concave application."""

    def factory(scale: float, seed: int) -> Tuple[RequestStream, float]:
        name = f"app{index:02d}"
        num_keys = _keys(scale, base_keys)
        stream = ZipfStream(
            app=name,
            num_keys=num_keys,
            alpha=alpha,
            size_model=FixedSize(value_size_for_class(class_index)),
            seed=seed,
        )
        hot = zipf_cache_for_hit_rate(
            num_keys, alpha, target_default_hit_rate
        )
        reservation = _chunk_bytes(class_index, hot * reservation_slack)
        return stream, reservation

    return factory


def _cliff_app(
    index: int,
    base_hot_keys: int,
    base_scan_keys: int,
    alpha: float,
    class_index: int,
    scan_weight: float,
    reservation_fraction_of_cliff: float,
    second_class: int = None,
    second_weight: float = 0.0,
    burst_second: bool = False,
) -> Callable[[float, int], Tuple[RequestStream, float]]:
    """Zipf head + normally-distributed reuse distances: a smooth cliff.

    The cliff component's hit-rate curve is a sigmoid centered at the
    reuse-distance mean (see
    :class:`~repro.workloads.generators.ReuseDistanceStream`).
    ``reservation_fraction_of_cliff`` places the default allocation
    relative to the cliff top: < 1 leaves the queue stuck inside the
    convex ramp (where default LRU scores near zero on the cliff share
    and cliff scaling recovers the concave hull), > 1 gives the default
    scheme the full cliff (where a concave-assuming solver then *takes
    memory away* and falls off it, the Application 19 failure).
    """

    def factory(scale: float, seed: int) -> Tuple[RequestStream, float]:
        name = f"app{index:02d}"
        cliff_center = _keys(scale, base_scan_keys, minimum=150)
        # The zipf head must saturate well below the ramp so the curve
        # keeps a visible flat shoulder followed by a convex climb (the
        # Figure 3 shape); a head as wide as the ramp blurs the cliff
        # into a concave curve. base_hot_keys only sizes the optional
        # second (sink) class.
        hot_keys = max(60, cliff_center // 4)
        size_model = FixedSize(value_size_for_class(class_index))
        head_weight = max(0.1, 1.0 - scan_weight - second_weight)
        components = [
            Component(
                ZipfStream(
                    app=name,
                    num_keys=hot_keys,
                    alpha=alpha,
                    size_model=size_model,
                    namespace="z",
                    seed=seed,
                ),
                weight=head_weight,
            ),
            Component(
                ReuseDistanceStream(
                    app=name,
                    mean_items=cliff_center,
                    sigma_items=max(8, cliff_center // 5),
                    size_model=size_model,
                    refs_per_key=9,
                    namespace="s",
                    seed=seed + 7,
                ),
                weight=scan_weight,
            ),
        ]
        # reservation_fraction_of_cliff < 1 places the queue inside the
        # ramp (~fraction x center items once the head is resident);
        # > 1 covers the cliff.
        reservation = _chunk_bytes(
            class_index,
            hot_keys * 0.5
            + cliff_center * reservation_fraction_of_cliff,
        )
        if second_class is not None and second_weight > 0:
            # The second class is a concave "sink": low skew over a large
            # universe keeps its estimated gradient positive across the
            # whole budget, so a concave-assuming solver pours the
            # reservation into it and starves the cliff class -- the
            # paper's application 18/19 failure.
            second_keys = _keys(scale, base_hot_keys)
            phases = (
                (Phase(0.0, 0.75, 0.15), Phase(0.75, 1.0, 6.0))
                if burst_second
                else ()
            )
            components.append(
                Component(
                    ZipfStream(
                        app=name,
                        num_keys=second_keys,
                        alpha=0.5,
                        size_model=FixedSize(
                            value_size_for_class(second_class)
                        ),
                        namespace="b",
                        seed=seed + 1,
                    ),
                    weight=second_weight,
                    phases=phases,
                )
            )
            reservation += _chunk_bytes(second_class, second_keys * 0.25)
        return MixtureStream(name, components, seed=seed), reservation

    return factory


def _imbalanced_classes_app(
    index: int,
    classes: List[Tuple[int, float, int, float]],
    reservation_fraction: float,
) -> Callable[[float, int], Tuple[RequestStream, float]]:
    """Multiple slab classes with mismatched value: the Table 1 shape.

    ``classes`` rows are ``(class_index, get_share, base_keys, alpha)``.
    Large low-reuse classes generate high *byte* arrival volume, so the
    first-come-first-serve allocation hands them the memory while hot
    small classes starve -- which is precisely what the solver and
    Cliffhanger then fix.
    """

    def factory(scale: float, seed: int) -> Tuple[RequestStream, float]:
        name = f"app{index:02d}"
        components = []
        ideal_bytes = 0.0
        for position, (class_index, share, base_keys, alpha) in enumerate(
            classes
        ):
            num_keys = _keys(scale, base_keys)
            components.append(
                Component(
                    ZipfStream(
                        app=name,
                        num_keys=num_keys,
                        alpha=alpha,
                        size_model=FixedSize(
                            value_size_for_class(class_index)
                        ),
                        namespace=f"c{class_index}",
                        seed=seed + position,
                    ),
                    weight=share,
                )
            )
            hot = zipf_cache_for_hit_rate(num_keys, alpha, 0.9)
            ideal_bytes += _chunk_bytes(class_index, hot)
        reservation = ideal_bytes * reservation_fraction
        return MixtureStream(name, components, seed=seed), reservation

    return factory


def _phased_app(
    index: int,
    base_keys: int,
    alpha: float,
    classes: List[int],
    reservation_fraction: float,
) -> Callable[[float, int], Tuple[RequestStream, float]]:
    """Popularity rotates across slab classes over the week (Figure 8)."""

    def factory(scale: float, seed: int) -> Tuple[RequestStream, float]:
        name = f"app{index:02d}"
        num_phases = len(classes)
        components = []
        ideal_bytes = 0.0
        for position, class_index in enumerate(classes):
            num_keys = _keys(scale, base_keys)
            start = position / num_phases
            end = (position + 1) / num_phases
            components.append(
                Component(
                    ZipfStream(
                        app=name,
                        num_keys=num_keys,
                        alpha=alpha,
                        size_model=FixedSize(
                            value_size_for_class(class_index)
                        ),
                        namespace=f"p{class_index}",
                        seed=seed + position,
                    ),
                    weight=1.0,
                    phases=(Phase(start, min(end, 1.0), 8.0),),
                )
            )
            hot = zipf_cache_for_hit_rate(num_keys, alpha, 0.95)
            ideal_bytes += _chunk_bytes(class_index, hot)
        reservation = ideal_bytes * reservation_fraction
        return MixtureStream(name, components, seed=seed), reservation

    return factory


def _churn_app(
    index: int,
    base_keys: int,
    alpha: float,
    class_index: int,
    reservation_fraction: float,
) -> Callable[[float, int], Tuple[RequestStream, float]]:
    """Key universe rotates mid-week: week-long profiles mislead the
    solver, incremental adaptation (Cliffhanger) keeps up (the
    application 9 / 18 behaviour of section 5.2)."""

    def factory(scale: float, seed: int) -> Tuple[RequestStream, float]:
        name = f"app{index:02d}"
        num_keys = _keys(scale, base_keys)
        size_model = FixedSize(value_size_for_class(class_index))
        halves = []
        for half, (start, end) in enumerate(((0.0, 0.5), (0.5, 1.0))):
            halves.append(
                Component(
                    ZipfStream(
                        app=name,
                        num_keys=num_keys,
                        alpha=alpha,
                        size_model=size_model,
                        namespace=f"g{half}",
                        seed=seed + half,
                    ),
                    weight=0.02,
                    phases=(Phase(start, end, 50.0),),
                )
            )
        hot = zipf_cache_for_hit_rate(num_keys, alpha, 0.9)
        reservation = _chunk_bytes(class_index, hot) * reservation_fraction
        return MixtureStream(name, halves, seed=seed), reservation

    return factory


def _app19(scale: float, seed: int) -> Tuple[RequestStream, float]:
    """Application 19: performance cliffs in *both* slab classes.

    Class 2 carries a steady cliff (center ~13500 items, echoing the
    paper's Figure 4 curve); class 3 carries a second cliff whose traffic
    bursts in the last quarter of the week ("a long period where the
    application sends requests belonging to Slab Class 0, and then sends
    a burst of requests belonging to Slab Class 1", section 5.4). The
    default reservation covers both cliffs, so the week-long default hit
    rate is high -- and a concave-assuming solver, seeing flat estimated
    gradients below the cliffs, strips the memory away and falls off
    them.
    """
    name = "app19"
    # Cliff centers sized so the app's request share sustains ~3 full
    # reuse generations (center x (refs+1) x 3 requests); the paper's
    # absolute 13500-item cliff is out of reach of a scaled replay.
    center_a = _keys(scale, 2_000, minimum=250)
    center_b = _keys(scale, 800, minimum=120)
    sink_keys = _keys(scale, 30_000, minimum=2_000)
    size_a = FixedSize(value_size_for_class(2))
    size_b = FixedSize(value_size_for_class(3))
    components = [
        # Cliff in slab class 2 (the paper's slab 0 / Figure 4 curve),
        # with a small concave zipf head so the estimated gradient is
        # positive below the cliff -- the solver funds the head, stalls
        # at the flat shoulder, and never pays for the ramp.
        Component(
            ReuseDistanceStream(
                app=name,
                mean_items=center_a,
                sigma_items=max(10, center_a // 5),
                size_model=size_a,
                refs_per_key=9,
                namespace="s",
                seed=seed + 7,
            ),
            weight=0.57,
        ),
        Component(
            ZipfStream(
                app=name,
                num_keys=max(100, center_a // 8),
                alpha=1.0,
                size_model=size_a,
                namespace="z",
                seed=seed,
            ),
            weight=0.10,
        ),
        # Cliff in slab class 3 (the paper's slab 1), bursting in the
        # last quarter of the week (section 5.4).
        Component(
            ReuseDistanceStream(
                app=name,
                mean_items=center_b,
                sigma_items=max(12, center_b // 3),
                size_model=size_b,
                refs_per_key=9,
                namespace="t",
                seed=seed + 8,
            ),
            weight=0.18,
            phases=(Phase(0.0, 0.75, 0.4), Phase(0.75, 1.0, 2.8)),
        ),
        # Concave sink: low-skew traffic over a large class-5 universe.
        # Its gradient stays positive across the whole reservation, so
        # the concave solver drains the cliff classes into it.
        Component(
            ZipfStream(
                app=name,
                num_keys=sink_keys,
                alpha=0.5,
                size_model=FixedSize(value_size_for_class(5)),
                namespace="u",
                seed=seed + 9,
            ),
            weight=0.15,
        ),
    ]
    reservation = (
        _chunk_bytes(2, center_a * 1.35)
        + _chunk_bytes(3, center_b * 1.35)
        + _chunk_bytes(5, sink_keys * 0.12)
    )
    return MixtureStream(name, components, seed=seed), reservation


#: The 20 applications. Shares echo a head-heavy tenant distribution and
#: are normalized at build time. Asterisked (cliff) apps: 1, 7, 10, 11,
#: 18, 19 -- matching Figure 2's annotation.
APP_SPECS: List[AppSpec] = [
    AppSpec(1, 0.26, True, "large, mid hit rate, cliff",
            _cliff_app(1, 60_000, 12_000, 0.9, 3, 0.60, 0.72),
            min_requests=15_000),
    AppSpec(2, 0.12, False, "low hit rate, flat popularity, under-provisioned",
            _plain_zipf_app(2, 150_000, 0.55, 4, 0.275)),
    AppSpec(3, 0.10, False, "very high hit rate, two classes (Fig 1 slab 9)",
            _imbalanced_classes_app(
                3, [(2, 0.90, 20_000, 1.15), (9, 0.10, 1_200, 1.1)], 1.15)),
    AppSpec(4, 0.09, False, "big class crowds small class (Table 1)",
            _imbalanced_classes_app(
                4, [(6, 0.09, 40_000, 0.35), (1, 0.91, 25_000, 1.05)], 0.50)),
    AppSpec(5, 0.08, False, "multi-class with weekly phase drift (Fig 8)",
            _phased_app(5, 12_000, 1.2, [4, 5, 6, 7, 8, 9], 0.8)),
    AppSpec(6, 0.05, False, "severe class imbalance (Table 1: 92.6% -> 0%)",
            _imbalanced_classes_app(
                6,
                [(0, 0.01, 2_000, 1.0), (2, 0.70, 30_000, 1.1),
                 (8, 0.29, 12_000, 0.30)],
                0.40)),
    AppSpec(7, 0.045, True, "cliff, moderately provisioned",
            _cliff_app(7, 30_000, 2_200, 0.95, 2, 0.60, 0.75),
            min_requests=12_000),
    AppSpec(8, 0.04, False, "healthy zipf",
            _plain_zipf_app(8, 40_000, 1.0, 3, 0.90)),
    AppSpec(9, 0.038, False, "mid-week churn: solver misled",
            _churn_app(9, 30_000, 1.0, 2, 0.9)),
    AppSpec(10, 0.035, True, "cliff",
            _cliff_app(10, 25_000, 1_700, 0.9, 4, 0.55, 0.70),
            min_requests=10_000),
    AppSpec(11, 0.03, True, "cliff in slab class 6 (Fig 3)",
            _cliff_app(11, 18_000, 1_400, 0.85, 6, 0.60, 0.72),
            min_requests=10_000),
    AppSpec(12, 0.028, False, "healthy zipf",
            _plain_zipf_app(12, 25_000, 1.05, 2, 0.95)),
    AppSpec(13, 0.026, False, "healthy zipf, solver == cliffhanger",
            _plain_zipf_app(13, 20_000, 1.1, 3, 0.93)),
    AppSpec(14, 0.024, False, "imbalanced classes: solver cuts misses >65%",
            _imbalanced_classes_app(
                14, [(1, 0.75, 20_000, 1.1), (8, 0.25, 8_000, 0.35)], 0.45)),
    AppSpec(15, 0.022, False, "healthy zipf",
            _plain_zipf_app(15, 15_000, 1.1, 2, 0.96)),
    AppSpec(16, 0.020, False, "imbalanced classes: solver cuts misses >65%",
            _imbalanced_classes_app(
                16, [(2, 0.80, 22_000, 1.05), (9, 0.20, 6_000, 0.3)], 0.45)),
    AppSpec(17, 0.018, False, "three imbalanced classes",
            _imbalanced_classes_app(
                17,
                [(1, 0.55, 15_000, 1.1), (4, 0.30, 12_000, 0.9),
                 (9, 0.15, 5_000, 0.3)],
                0.50)),
    AppSpec(18, 0.016, True, "cliff; solver increases misses 13.6x",
            _cliff_app(18, 10_000, 800, 1.0, 3, 0.5, 1.25,
                       second_class=5, second_weight=0.3),
            min_requests=9_000),
    AppSpec(19, 0.04, True,
            "two cliff classes; solver drops 99.5% -> 74.7% (Fig 4, Tab 4)",
            lambda scale, seed: _app19(scale, seed),
            min_requests=20_000),
    AppSpec(20, 0.012, False, "healthy zipf",
            _plain_zipf_app(20, 12_000, 0.95, 3, 0.92)),
]


@dataclass
class MemcachierTrace:
    """A built trace: per-app metadata plus the streams it compiles from."""

    scale: float
    seed: int
    total_requests: int
    reservations: Dict[str, float]
    requests_per_app: Dict[str, int]
    specs: Dict[str, AppSpec]
    _streams: Dict[str, RequestStream]

    def columns(self) -> Iterator[Columns]:
        """Generate every app's stream, one at a time (regenerable);
        :meth:`~repro.workloads.compiled.CompiledTrace.compile` merges
        them by time."""
        for spec in self.specs.values():
            yield self._streams[spec.name].columns(
                self.requests_per_app[spec.name], WEEK_SECONDS
            )

    @property
    def app_names(self) -> List[str]:
        return [spec.name for spec in self.specs.values()]


def build_memcachier_trace(
    scale: float = 1.0,
    seed: int = 0,
    apps: List[int] = None,
    total_requests: int = None,
) -> MemcachierTrace:
    """Construct the synthetic trace.

    Args:
        scale: Scales key universes, reservations and request counts
            together (1.0 ~ 2M requests; benchmarks use ~0.02-0.05).
        seed: Master seed; every application derives its own.
        apps: Optional subset of application indices (1-based), e.g.
            ``[3, 4, 5]`` for Table 2.
        total_requests: Override the scaled request budget.
    """
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    chosen = [
        spec
        for spec in APP_SPECS
        if apps is None or spec.index in set(apps)
    ]
    if not chosen:
        raise ConfigurationError(f"no applications selected from {apps}")
    budget = total_requests or int(BASE_TOTAL_REQUESTS * scale)
    share_total = sum(spec.share for spec in chosen)
    streams: Dict[str, RequestStream] = {}
    reservations: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for spec in chosen:
        stream, reservation = spec.factory(scale, seed + spec.index * 1000)
        streams[spec.name] = stream
        reservations[spec.name] = max(reservation, 64 * 1024)
        counts[spec.name] = max(
            spec.min_requests, int(budget * spec.share / share_total)
        )
    return MemcachierTrace(
        scale=scale,
        seed=seed,
        total_requests=sum(counts.values()),
        reservations=reservations,
        requests_per_app=counts,
        specs={spec.name: spec for spec in chosen},
        _streams=streams,
    )
