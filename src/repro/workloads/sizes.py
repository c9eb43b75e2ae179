"""Deterministic per-key item-size models.

Trace replay requires that a key always has the same value size (the
simulator classifies requests into slab classes by size, and a key that
flapped between classes would create phantom misses). Every model here
derives the size from a stable hash of the key, so repeated requests --
and repeated *runs* -- agree.

The generalized Pareto model reproduces the value-size distribution
measured at Facebook (Atikoglu et al., SIGMETRICS 2012), which the paper's
micro-benchmarks use via mutilate (section 5.1/5.6).
"""

from __future__ import annotations

import abc

from repro.common.errors import ConfigurationError
from repro.common.hashing import premix_salt, premixed_unit_hash

#: Memcached's largest storable value in the default geometry; all models
#: clamp to it so generated items always fit a slab class.
_MAX_VALUE_BYTES = (1 << 20) - 4096


class SizeModel(abc.ABC):
    """Maps a key to its (stable) value size in bytes."""

    @abc.abstractmethod
    def size_of(self, key: str) -> int:
        """Value size for ``key`` -- deterministic across calls."""

    @staticmethod
    def _clamp(size: float) -> int:
        return int(max(1, min(_MAX_VALUE_BYTES, round(size))))


class FixedSize(SizeModel):
    """Every key has the same value size (single slab class)."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ConfigurationError(f"size must be >= 1, got {size}")
        self.size = self._clamp(size)

    def size_of(self, key: str) -> int:
        return self.size


class GeneralizedParetoSize(SizeModel):
    """Facebook ETC value sizes: GP(location=0, scale=214.476, shape=0.348).

    Inverse CDF: ``x = scale/shape * ((1 - u)**(-shape) - 1)``. Parameters
    from Atikoglu et al., Table 3 (ETC pool), the distribution mutilate
    replays.
    """

    def __init__(
        self,
        scale: float = 214.476,
        shape: float = 0.348468,
        minimum: int = 1,
        salt: int = 107,
    ) -> None:
        if scale <= 0 or shape <= 0:
            raise ConfigurationError("scale and shape must be positive")
        self.scale, self.shape = scale, shape
        self.minimum, self.salt = minimum, salt
        self._salt_mix = premix_salt(salt)

    def size_of(self, key: str) -> int:
        u = premixed_unit_hash(key, self._salt_mix)
        u = min(u, 1.0 - 1e-12)
        x = self.scale / self.shape * ((1.0 - u) ** (-self.shape) - 1.0)
        return self._clamp(max(self.minimum, x))

