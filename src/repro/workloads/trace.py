"""The request record of the object API.

A trace is any iterable of :class:`Request` objects ordered by time;
generated traces are built as columns instead
(:mod:`repro.workloads.generators`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import TraceFormatError

#: Operations understood by the simulator.
OPS = ("get", "set", "delete")


@dataclass(frozen=True)
class Request:
    """One cache request.

    Attributes:
        time: Simulated timestamp in seconds since trace start.
        app: Application identifier (tenant).
        key: The cache key (string).
        op: One of ``get``, ``set``, ``delete``.
        value_size: Size of the value in bytes. For GETs this is the size
            of the object the key refers to, which the simulator uses to
            fill the cache on a miss (the standard trace-replay
            convention).
        key_size: Size of the key in bytes; defaults to ``len(key)``.
    """

    time: float
    app: str
    key: str
    op: str
    value_size: int
    key_size: int = -1

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise TraceFormatError(f"unknown op {self.op!r}")
        if self.value_size < 0:
            raise TraceFormatError(
                f"value_size must be >= 0, got {self.value_size}"
            )
        if self.key_size < 0:
            object.__setattr__(self, "key_size", len(self.key))
