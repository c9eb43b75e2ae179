"""Facebook-style micro-benchmark workloads (paper sections 5.1, 5.6).

The paper stresses its implementation with mutilate, "a load generator
that simulates traffic from the 2012 Facebook study". Two streams stand in
for it:

* :class:`FacebookETCStream` -- the ETC pool model from Atikoglu et al.:
  short keys (16-45 B), generalized-Pareto values, Zipf popularity, and
  the production GET/SET mix (96.7% / 3.3%, Table 7 row 1).
* :class:`UniqueKeyStream` -- the paper's worst case for overhead
  measurement: "a synthetic trace where all keys are unique and all
  queries miss the cache" (section 5.6), with a configurable GET/SET mix
  for Table 7's sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.stats import OP_GET, OP_SET
from repro.common.errors import ConfigurationError
from repro.common.hashing import stable_hash_u64
from repro.workloads.compiled import Columns
from repro.workloads.generators import RequestStream, _keyed, _timestamps
from repro.workloads.sizes import GeneralizedParetoSize, SizeModel
from repro.workloads.zipf import ZipfSampler

#: The production GET fraction the paper quotes (Table 7, first row).
FACEBOOK_GET_FRACTION = 0.967


def _etc_key_size(key: str) -> int:
    """ETC key sizes cluster in 16-45 bytes (Atikoglu et al., Fig. 2)."""
    return 16 + stable_hash_u64(key, salt=211) % 30


@dataclass
class FacebookETCStream(RequestStream):
    """Zipf-popular requests with ETC key/value size distributions."""

    app: str = "etc"
    num_keys: int = 200_000
    alpha: float = 0.95
    get_fraction: float = FACEBOOK_GET_FRACTION
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.get_fraction <= 1.0:
            raise ConfigurationError(
                f"get_fraction must be in [0, 1]: {self.get_fraction}"
            )
        self._sizes: SizeModel = GeneralizedParetoSize()

    def columns(self, num_requests: int, duration: float, start_time: float = 0.0) -> Columns:
        rng = np.random.default_rng(self.seed)
        sampler = ZipfSampler(self.num_keys, self.alpha, rng=rng)
        ranks = sampler.sample(num_requests)
        is_get = rng.random(num_requests) < self.get_fraction
        times = _timestamps(num_requests, duration, start_time)
        ops = np.where(is_get, OP_GET, OP_SET)
        return _keyed(self, ranks, times, ops, "fb", self._sizes.size_of, _etc_key_size)


@dataclass
class UniqueKeyStream(RequestStream):
    """Every key distinct: the all-miss worst case of section 5.6.

    Every GET misses and every operation allocates, evicts and touches
    the shadow queues, maximizing Cliffhanger's overhead.
    """

    app: str = "worstcase"
    get_fraction: float = FACEBOOK_GET_FRACTION
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.get_fraction <= 1.0:
            raise ConfigurationError(
                f"get_fraction must be in [0, 1]: {self.get_fraction}"
            )
        self._sizes: SizeModel = GeneralizedParetoSize()

    def columns(self, num_requests: int, duration: float, start_time: float = 0.0) -> Columns:
        rng = np.random.default_rng(self.seed)
        is_get = rng.random(num_requests) < self.get_fraction
        times = _timestamps(num_requests, duration, start_time)
        ops = np.where(is_get, OP_GET, OP_SET)
        return _keyed(
            self, np.arange(num_requests), times, ops, f"u:{self.seed}",
            self._sizes.size_of, _etc_key_size,
        )
