"""The one codec behind every declarative spec block.

Each block of a scenario (``cluster``, ``rebalance``, ``faults`` and its
events, ``serve`` and its ``retry``, the scenario itself) is a dataclass
inheriting :class:`Spec`. Its fields *are* the schema: ``to_dict``,
``from_dict``, construction-time coercion and validation, and the
``--list`` text all derive from them, so a field is declared once.

A field is an ``int`` / ``float`` / ``str`` scalar (or ``Optional`` of
one), an optional nested block held as its normalized plain dict
(``block=``), or a tuple of block instances (``items=``); any other
type passes through untouched. Scalars may declare ``choices`` and a
lower bound (``ge`` inclusive, ``gt`` exclusive). Rules spanning fields
stay in the class's ``__post_init__``, after ``super().__post_init__()``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import (
    Any, Callable, ClassVar, Dict, Mapping, Optional, Sequence, Tuple, Type,
    TypeVar, Union, get_args, get_origin, get_type_hints,
)

from repro.common.errors import ConfigurationError

SpecT = TypeVar("SpecT", bound="Spec")
_KINDS = {int: "an integer", float: "a number", str: "a string"}


def spec_field(
    default: Any = dataclasses.MISSING,
    *,
    choices: Sequence[str] = (),
    ge: Optional[float] = None,
    gt: Optional[float] = None,
    block: Optional[Type["Spec"]] = None,
    items: Optional[Type["Spec"]] = None,
) -> Any:
    """A dataclass field carrying its validation rules as metadata."""
    rules = {"choices": tuple(choices), "ge": ge, "gt": gt, "block": block,
             "items": items}
    return dataclasses.field(
        default=default,
        metadata={k: v for k, v in rules.items() if v not in (None, ())},
    )


def _fields(spec: Any) -> Tuple["dataclasses.Field[Any]", ...]:
    return dataclasses.fields(spec)


@functools.lru_cache(maxsize=None)
def _hints(cls: type) -> Dict[str, Any]:
    """Resolved field annotations, once per class: evaluating the
    string annotations dominates construction otherwise."""
    return get_type_hints(cls)


def choices_of(cls: Type["Spec"], name: str) -> Tuple[str, ...]:
    """The declared ``choices`` of field ``name`` (CLI flags reuse them);
    empty when any value of the field's type goes."""
    (field,) = [field for field in _fields(cls) if field.name == name]
    return tuple(field.metadata.get("choices", ()))


def _plain(value: Any) -> Any:
    """A JSON-safe copy: string keys, lists for sequences."""
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, Mapping):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class Spec:
    """Mixin for spec-block dataclasses; ``BLOCK`` names the block in
    error messages (``unknown cluster fields: ...``, ``cluster.shards``).
    """

    BLOCK: ClassVar[str]

    def __post_init__(self) -> None:
        hints = _hints(type(self))
        for field in _fields(self):
            value = self._checked(
                field, hints[field.name], getattr(self, field.name)
            )
            object.__setattr__(self, field.name, value)

    def _checked(
        self, field: "dataclasses.Field[Any]", hint: Any, value: Any
    ) -> Any:
        """``value`` coerced to the field's declared shape, or a
        :class:`ConfigurationError` naming ``block.field``."""
        rules = field.metadata
        where = f"{self.BLOCK}.{field.name}"
        if "items" in rules:
            if not isinstance(value, (list, tuple)):
                raise ConfigurationError(f"{where} must be a list, got {value!r}")
            return tuple(
                item if isinstance(item, rules["items"])
                else rules["items"].from_dict(item)
                for item in value
            )
        if get_origin(hint) is Union:
            inner = [arg for arg in get_args(hint) if arg is not type(None)]
            if value is None or len(inner) != 1:
                return value
            hint = inner[0]
        if "block" in rules:
            return rules["block"].from_dict(value).to_dict()
        if hint not in _KINDS:
            return value
        # One rule for every block: int() / float() / str() of a JSON
        # scalar; booleans and fractional integers are refused, never
        # truncated.
        try:
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise ValueError
            coerced = hint(value)
            if hint is int and isinstance(value, float) and coerced != value:
                raise ValueError
        except ValueError:
            raise ConfigurationError(
                f"bad {self.BLOCK} block: {where} must be {_KINDS[hint]}, "
                f"got {value!r}"
            ) from None
        if "choices" in rules and coerced not in rules["choices"]:
            raise ConfigurationError(
                f"{where} must be one of {', '.join(rules['choices'])}; "
                f"got {coerced!r}"
            )
        # Negated comparisons, so that NaN fails its bound.
        if "ge" in rules and not coerced >= rules["ge"]:
            raise ConfigurationError(
                f"{where} must be >= {rules['ge']}, got {coerced}"
            )
        if "gt" in rules and not coerced > rules["gt"]:
            raise ConfigurationError(
                f"{where} must be > {rules['gt']}, got {coerced}"
            )
        return coerced

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict in field order; ``from_dict`` round-trips it."""
        return {f.name: _plain(getattr(self, f.name)) for f in _fields(self)}

    @classmethod
    def from_dict(
        cls: Type[SpecT], payload: Optional[Mapping[str, Any]] = None
    ) -> SpecT:
        """Build from a plain mapping; ``None`` means all defaults."""
        if payload is None:
            payload = {}
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"{cls.BLOCK} block must be an object (a mapping), got "
                f"{type(payload).__name__}"
            )
        fields = _fields(cls)
        unknown = set(payload) - {field.name for field in fields}
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.BLOCK} fields: "
                f"{', '.join(sorted(map(str, unknown)))}"
            )
        for field in fields:
            required = (
                field.default is dataclasses.MISSING
                and field.default_factory is dataclasses.MISSING
            )
            if required and field.name not in payload:
                raise ConfigurationError(
                    f"{cls.BLOCK} missing field {field.name!r}"
                )
        build: Callable[..., SpecT] = cls
        return build(**payload)

    @classmethod
    def describe(cls) -> str:
        """The block's ``--list`` text: every field, its choices, and
        nested blocks spelled out."""
        parts = []
        for field in _fields(cls):
            rules = field.metadata
            text = field.name
            if "choices" in rules:
                text += f" ({'|'.join(rules['choices'])})"
            if "block" in rules:
                text += f" {{{rules['block'].describe()}}}"
            if "items" in rules:
                text += f" [{{{rules['items'].describe()}}}, ...]"
            parts.append(text)
        return ", ".join(parts)
