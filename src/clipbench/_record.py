"""Immutable records: the base class of clipbench's plain value types.

A subclass lists its fields as annotated class attributes, in order, with
an optional default each; ``__post_init__``, where defined, runs after
the fields are set and may replace them with ``object.__setattr__``::

    class Point(_Record):
        x: float
        y: float = 0.0

The base gives the constructor (positional or keyword, ``TypeError`` on a
missing, unknown or repeated argument), an ``inspect.signature`` to match,
a ``Name(field=value, ...)`` repr, ``AttributeError`` on assignment and
deletion, ``__match_args__`` and ``_fields``, and equality and hash by the
tuple of fields; a subclass declared with ``eq=False`` compares and hashes
by identity, and one that defines ``__eq__`` or ``__hash__`` keeps it.
Instances keep their fields in ``__dict__``, so copy and pickle need
nothing more.

Annotations, as strings, set how a field is stored and compared: an
``int`` goes through ``operator.index`` and a ``float`` (or ``float |
None``) is stored as a Python float, before ``__post_init__``; an
``np.ndarray`` (or ``np.ndarray | None``) compares by ``np.array_equal``
and leaves a record that compares by value without a hash; a record that
holds such records sets ``__hash__ = None`` itself.

It builds no code at class creation, unlike ``dataclasses``, whose
``exec`` of each generated method was most of the package's import time.

The module is also the one home of the argument rules that the package's
entry points share, each with one wording: ``_positive`` (``inf``
allowed, as a threshold that clips nothing), ``_finite_positive``,
``_finite_nonnegative`` and ``_count`` (an integer at least ``low``).
The first three return the value as a float, ``_count`` the value it was
given; each raises ``ValueError("{name} must be {rule}, got {value!r}")``.
"""

from __future__ import annotations

import inspect
import math
import numbers
import operator

import numpy as np

_set = object.__setattr__
_PARAM = inspect.Parameter.POSITIONAL_OR_KEYWORD


def _to_int(name, value):
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _to_float(name, value):
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _to_optional_float(name, value):
    return None if value is None else _to_float(name, value)


def _rule(ok: bool, name: str, rule: str, value):
    """``value``, where ``ok`` holds; else the one wording of every rule."""
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def _positive(name: str, value) -> float:
    """``value`` as a float, where it is positive: an infinite threshold
    clips nothing."""
    value = float(value)
    return _rule(value > 0, name, "positive", value)


def _finite_positive(name: str, value) -> float:
    value = float(value)
    return _rule(0 < value < math.inf, name, "finite and positive", value)


def _finite_nonnegative(name: str, value) -> float:
    """``value`` as a float, where it is finite and nonnegative: a NaN,
    infinite or negative constant would give a NaN, infinite or meaningless
    prediction or check, which would read as a failed or passed one."""
    value = float(value)
    return _rule(0 <= value < math.inf, name, "finite and nonnegative", value)


def _count(name: str, value, low: int = 1):
    """``value`` as given, where it is at least ``low``: a count of
    iterations, samples, rows or points."""
    return _rule(value >= low, name, f">= {low}", value)


# annotation -> (the exact type a stored value has, the conversion to it)
_SCALARS = {"int": (int, _to_int), "float": (float, _to_float),
            "float | None": (float, _to_optional_float)}
_ARRAYS = ("np.ndarray", "np.ndarray | None")


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    arrays = self._arrays
    return all(a is b or (np.array_equal(a, b) if name in arrays else a == b)
               for name, a, b in zip(self._fields, self._astuple(), other._astuple()))


def _hash(self):
    return hash(self._astuple())


class _Record:
    def __init_subclass__(cls, eq: bool = True) -> None:
        annotations = cls.__dict__.get("__annotations__", {})
        cls._fields = cls.__match_args__ = tuple(annotations)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._post_init = getattr(cls, "__post_init__", None)
        cls.__signature__ = inspect.Signature([
            inspect.Parameter(name, _PARAM, annotation=annotations[name],
                              default=cls._defaults.get(name, inspect.Parameter.empty))
            for name in cls._fields
        ], return_annotation=None)
        cls._scalars = tuple((name, *_SCALARS[annotations[name]])
                             for name in cls._fields if annotations[name] in _SCALARS)
        cls._arrays = tuple(name for name in cls._fields if annotations[name] in _ARRAYS)
        if eq and "__eq__" not in cls.__dict__:
            cls.__eq__ = _eq
            if "__hash__" not in cls.__dict__:
                cls.__hash__ = None if cls._arrays else _hash

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        fields = cls._fields
        given = len(args)
        if given > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} positional"
                            f" arguments but {given} were given")
        # object.__setattr__ keeps the fields in the instance's inline values,
        # where storing into self.__dict__ would build a dict per instance
        for name, value in zip(fields, args):
            _set(self, name, value)
        defaults = cls._defaults
        for name in fields[given:]:
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif name in defaults:
                _set(self, name, defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
        # a value that already has the exact type skips the conversion: the
        # numbers.Real check alone would triple the cost of a small record
        for name, exact, convert in cls._scalars:
            value = getattr(self, name)
            if value.__class__ is not exact:
                _set(self, name, convert(name, value))
        if cls._post_init is not None:
            cls._post_init(self)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
