"""Fast Zipfian popularity sampling.

Web-cache key popularity is heavy-tailed; the standard model (used by the
Facebook SIGMETRICS study and by mutilate) is a Zipf distribution over a
fixed key universe: the rank-``r`` key is requested with probability
proportional to ``1 / r**alpha``. Sampling is vectorized through an
inverse-CDF table (numpy ``searchsorted``), which makes generating
multi-million-request traces cheap.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.errors import ConfigurationError


class ZipfSampler:
    """Samples 0-based ranks with ``P(r) ~ 1 / (r + 1)**alpha``.

    Args:
        num_keys: Size of the key universe.
        alpha: Skew; 0 is uniform, ~1 matches typical web workloads.
        rng: Optional ``numpy.random.Generator`` (created from ``seed``
            otherwise).
        seed: Seed when ``rng`` is not supplied.
    """

    def __init__(
        self,
        num_keys: int,
        alpha: float,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ) -> None:
        if num_keys < 1:
            raise ConfigurationError(f"num_keys must be >= 1, got {num_keys}")
        if alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {alpha}")
        self.num_keys = num_keys
        self.alpha = alpha
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        weights = 1.0 / np.power(
            np.arange(1, num_keys + 1, dtype=float), alpha
        )
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def sample(self, count: int = 1) -> np.ndarray:
        """Draw ``count`` ranks (0-based ints, shape ``(count,)``)."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        uniforms = self.rng.random(count)
        return np.searchsorted(self._cdf, uniforms, side="left")
