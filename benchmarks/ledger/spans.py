"""Spans and counts taken from outside the program under test.

The ledger never edits ``src/``: a span is opened in this directory
around a call into a layer's public function, either explicitly
(``with tracer.span(...)``) or by wrapping an attribute for the length
of a ``with tracer.wrapped(...)`` block. Spans stay in memory and are
written out once, when the run ends. A disabled tracer records nothing
and wraps nothing, so the untraced run executes the program's own
functions untouched.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.phase = ""
        #: (name, start, end, parent index or -1, phase)
        self.spans: List[tuple] = []
        self._open: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.phase)

    @contextmanager
    def wrapped(self, owner: object, attribute: str, name: str) -> Iterator[None]:
        """Time every call of ``owner.attribute`` as a span called
        ``name`` until the block exits (class-, module- or
        instance-level; the original is always put back)."""
        if not self.enabled:
            yield
            return
        raw = owner.__dict__.get(attribute) if hasattr(owner, "__dict__") else None
        original = getattr(owner, attribute)
        tracer = self

        def timed(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        replacement: object = timed
        if isinstance(raw, classmethod):
            # ``original`` is already bound to the class.
            replacement = classmethod(
                lambda cls, *args, **kwargs: timed(*args, **kwargs)
            )
        setattr(owner, attribute, replacement)
        try:
            yield
        finally:
            if raw is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, raw)

    # -- reading -------------------------------------------------------

    def total(self, name: str, phase: Optional[str] = None) -> float:
        """Summed duration of the ``name`` spans (of one phase)."""
        return sum(
            span[2] - span[1]
            for span in self.spans
            if span is not None
            and span[0] == name
            and (phase is None or span[4] == phase)
        )

    def self_time(self, name: str) -> float:
        """Total duration of ``name`` spans minus what their direct
        children cover."""
        own: Dict[int, float] = {}
        for index, span in enumerate(self.spans):
            if span is not None and span[0] == name:
                own[index] = span[2] - span[1]
        for span in self.spans:
            if span is not None and span[3] in own:
                own[span[3]] -= span[2] - span[1]
        return sum(own.values())

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, phase = span
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - self._origin,
                            "end": end - self._origin,
                            "parent": parent,
                            "phase": phase,
                        }
                    )
                    + "\n"
                )
