"""Read a spec field's declared rules, for test strategies."""

from __future__ import annotations

import dataclasses
from typing import Tuple


def choices_of(cls: type, name: str) -> Tuple[str, ...]:
    """The declared ``choices`` of field ``name`` of a
    :class:`repro.common.spec.Spec` class; empty when any value of the
    field's type goes."""
    (field,) = [field for field in dataclasses.fields(cls) if field.name == name]
    return tuple(field.metadata.get("choices", ()))
