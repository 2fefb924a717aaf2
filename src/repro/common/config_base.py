"""Keyword-only configuration dataclasses whose fields declare their bounds.

Every public config object (:class:`~repro.core.config.LSMConfig`,
:class:`~repro.service.config.ServiceConfig`,
:class:`~repro.faults.config.FaultConfig`, ...) is keyword-only: positional
construction couples callers to field *order*, which the design-space sweep
code mutates freely. Python 3.9 has no ``dataclass(kw_only=True)``, so
:func:`kwonly_dataclass` wraps the generated ``__init__``.

Each field declares its domain once, where it is defined: the annotation is
its type, and ``Annotated[int, POSITIVE]`` adds single-field bounds. One
checker, :func:`check_fields`, enforces both for every config class, so a
wrong type, a NaN or a value outside its bound ends in a
:class:`~repro.errors.ConfigError` at construction. A class writes out only
the rules that relate several fields, in its own ``validate``.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from collections import abc
from numbers import Integral, Real
from typing import Any, Callable, Tuple, Union

from repro.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class Rule:
    """A single-field bound: a value of type ``on`` must satisfy ``holds``.

    In a container field the rule applies to every item of type ``on``, so
    ``Annotated[Sequence[float], NON_NEGATIVE]`` bounds each entry.
    """

    holds: Callable[[Any], bool]
    says: str
    on: Union[type, Tuple[type, ...]] = Real


def at_least(low) -> Rule:
    return Rule(lambda value: value >= low, f"at least {low}")


def in_range(low, high) -> Rule:
    return Rule(lambda value: low <= value <= high, f"in [{low}, {high}]")


POSITIVE = Rule(lambda value: value > 0, "positive")
NON_NEGATIVE = Rule(lambda value: value >= 0, "non-negative")
UNIT_INTERVAL = in_range(0, 1)
NON_EMPTY = Rule(lambda value: len(value) > 0, "non-empty", on=(str, abc.Sequence, abc.Mapping))


def check_fields(config) -> None:
    """Check every field of ``config`` against its declared type and bounds."""
    for name, hint, rules in type(config)._declared:
        _check(name, getattr(config, name), hint, rules)


def kwonly_dataclass(cls):
    """Make a dataclass keyword-only (a positional argument is a TypeError)
    that validates itself on construction and on :meth:`replace`.

    Apply *below* ``@dataclass`` (i.e. to the finished dataclass). The class's
    own ``validate`` — which calls :func:`check_fields` before its
    cross-field rules — runs once per construction; a class without one gets
    :func:`check_fields` alone.
    """
    hints = typing.get_type_hints(cls, include_extras=True)
    cls._declared = tuple(
        (field.name, *_split(hints[field.name])) for field in dataclasses.fields(cls)
    )
    original_init = cls.__init__

    @functools.wraps(original_init)
    def __init__(self, **kwargs):
        original_init(self, **kwargs)
        self.validate()

    def replace(self, **changes):
        """A copy with some fields changed (convenience for sweeps)."""
        return dataclasses.replace(self, **changes)

    cls.__init__ = __init__
    cls.replace = replace
    if "validate" not in cls.__dict__:
        cls.validate = check_fields
    return cls


def _split(hint) -> Tuple[Any, Tuple[Rule, ...]]:
    if typing.get_origin(hint) is typing.Annotated:
        return hint.__origin__, tuple(hint.__metadata__)
    return hint, ()


def _check(name: str, value, hint, rules) -> None:
    shape = _shape(value, hint)
    if shape is None:
        raise ConfigError(f"{name} must be {_describe(hint)}, got {value!r}")
    if value is None:
        return
    if isinstance(value, Real) and value != value:
        raise ConfigError(f"{name} must be a number, got nan")
    for rule in rules:
        if isinstance(value, rule.on) and not rule.holds(value):
            raise ConfigError(f"{name} must be {rule.says}")
    args = typing.get_args(shape)
    if args and isinstance(value, abc.Mapping):
        for key, item in value.items():
            _check(f"{name}[{key!r}]", item, args[1], rules)
    elif args and isinstance(value, abc.Sequence):
        for index, item in enumerate(value):
            _check(f"{name}[{index}]", item, args[0], rules)


def _shape(value, hint):
    """The arm of ``hint`` that ``value`` has the shape of, or None (a
    container's items are checked apart, against the arm's arguments)."""
    if typing.get_origin(hint) is Union:
        return next((arm for arm in typing.get_args(hint) if _shape(value, arm)), None)
    if hint is type(None):
        return hint if value is None else None
    origin = typing.get_origin(hint) or hint
    if origin in (int, float):
        kind = Integral if origin is int else Real
        fits = isinstance(value, kind) and not isinstance(value, bool)
    elif origin is abc.Sequence:
        fits = isinstance(value, abc.Sequence) and not isinstance(value, (str, bytes))
    elif origin is dict:
        fits = isinstance(value, abc.Mapping)
    elif origin is abc.Callable:
        fits = callable(value)
    else:
        fits = isinstance(value, origin)
    return hint if fits else None


_NAMES = {int: "an integer", float: "a number", bool: "a bool", str: "a string", type(None): "None",
          abc.Sequence: "a sequence", dict: "a dict", abc.Callable: "callable"}


def _describe(hint) -> str:
    if typing.get_origin(hint) is Union:
        return " or ".join(_describe(arm) for arm in typing.get_args(hint))
    origin = typing.get_origin(hint) or hint
    return _NAMES.get(origin) or f"a {origin.__name__}"
