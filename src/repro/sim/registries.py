"""Decorator-based registries for engine schemes and workloads.

The original harness dispatched on scheme names through an ``if/elif``
chain and hard-coded the Memcachier loader; these registries make both
axes pluggable::

    from repro.sim import register_scheme

    @register_scheme("my-scheme", "one line for --list")
    def build(app, budget_bytes, *, geometry, scale, seed, policy, plan,
              **overrides):
        return MyEngine(app, budget_bytes, geometry)

Scheme builders receive ``(app, budget_bytes)`` positionally plus the
keyword context the runner supplies (``geometry``, ``scale``, ``seed``,
``policy``, ``plan`` and any per-scenario overrides) and return an
:class:`~repro.cache.engines.Engine`.

Workload builders receive ``(scale, seed)`` plus the scenario's
``workload_params`` and return a trace-like object exposing
``app_names``, ``reservations``, ``scale``, ``seed`` and a ``compiled``
:class:`~repro.workloads.compiled.CompiledTrace` (see
:mod:`repro.sim.workloads`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, TypeVar

from repro.common.errors import ConfigurationError

Builder = TypeVar("Builder", bound=Callable)


class Registry:
    """A name -> factory mapping with decorator registration.

    Every entry carries the one-line note ``--list`` prints, given where
    the entry is registered so the two cannot drift apart.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Callable] = {}
        self._notes: Dict[str, str] = {}

    def register(self, name: str, note: str) -> Callable[[Builder], Builder]:
        """Decorator: ``@registry.register("name", "what it is")``."""
        for label, text in (("name", name), ("note", note)):
            if not text or not isinstance(text, str):
                raise ConfigurationError(
                    f"{self.kind} {label} must be a non-empty string, "
                    f"got {text!r}"
                )

        def _register(builder: Builder) -> Builder:
            if name in self._entries:
                raise ConfigurationError(
                    f"{self.kind} {name!r} is already registered"
                )
            self._entries[name] = builder
            self._notes[name] = note
            return builder

        return _register

    def get(self, name: str) -> Callable:
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; known: "
                f"{', '.join(sorted(self._entries))}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def note(self, name: str) -> str:
        """The registered one-line description of ``name``."""
        self.get(name)
        return self._notes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)


#: Engine scheme registry (``default``, ``cliffhanger``, ...).
SCHEMES = Registry("scheme")

#: Workload registry (``memcachier``, ``zipf``, ``facebook``).
WORKLOADS = Registry("workload")

register_scheme = SCHEMES.register
register_workload = WORKLOADS.register


def list_schemes() -> List[str]:
    return SCHEMES.names()


def list_workloads() -> List[str]:
    return WORKLOADS.names()
