"""The one checked path from JSON to the program's dataclasses and float arrays."""

from __future__ import annotations

import functools
import itertools
import math
import reprlib
import typing

import numpy as np

_hints = functools.cache(typing.get_type_hints)


def fits(value, hint) -> bool:
    """Whether a JSON value is of a field's type; a float field also takes an integer
    but no NaN or infinity, and only a bool field takes true or false."""
    if typing.get_origin(hint) is tuple:  # tuple[int, ...] is a JSON list of integers
        return isinstance(value, (list, tuple)) and all(fits(v, typing.get_args(hint)[0])
                                                        for v in value)
    kinds = typing.get_args(hint) or (hint,)  # int | None gives (int, NoneType)
    if float in kinds:
        kinds += (int,)
    return (isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))
            and (not isinstance(value, float) or math.isfinite(value)))


def _name(hint) -> str:
    return hint.__name__ if isinstance(hint, type) else str(hint)


def _stored(value, hint):
    """A value that fits ``hint`` as its field keeps it: a list as a tuple, an int as a float."""
    if typing.get_origin(hint) is tuple:
        return tuple(_stored(v, typing.get_args(hint)[0]) for v in value)
    if type(value) is int and float in (typing.get_args(hint) or (hint,)):
        return float(value)
    return value


def build(cls, /, **fields):
    """``cls`` from the fields that are set, its defaults filling in the rest; a value not
    of its field's type raises ``TypeError``, and a name with no field is ``cls``'s to refuse."""
    hints = _hints(cls)
    given = {name: value for name, value in fields.items() if value is not None}
    for name, value in given.items():
        if name in hints:
            if not fits(value, hints[name]):
                raise TypeError(f"{cls.__name__}.{name} must be {_name(hints[name])}, "
                                f"got {reprlib.repr(value)}")  # bounded, however deep the value
            given[name] = _stored(value, hints[name])
    return cls(**given)


def reader(hint):
    """A function that returns a JSON value of type ``hint`` as a field of it holds it,
    and raises ``ValueError`` for any other value."""
    def read(value):
        if not fits(value, hint):
            raise ValueError(f"expected {_name(hint)}, got {reprlib.repr(value)}")
        return _stored(value, hint)
    return read


def holds_bool(value, depth: int = 1) -> bool:
    """Whether a JSON list nested ``depth`` deep (0 for a scalar) holds a true or false,
    which numpy reads as 1 or 0 beside numbers. The entries are looked at in C loops."""
    entries = [value]
    for _ in range(depth):
        entries = itertools.chain.from_iterable(entries)
    return bool in set(map(type, entries))


def float_array(value) -> np.ndarray:
    """A JSON number or (nested) list of numbers as a float array. A null, true, false or
    string in it, a number past float range (read as an infinity), or a ragged list raises
    ``ValueError``, where a float conversion reads null as NaN, true as 1 and a string as
    its number."""
    array = np.asarray(value)
    if (array.dtype.kind not in "iuf" or holds_bool(value, array.ndim)
            or not np.isfinite(array).all()):
        raise ValueError(f"expected finite numbers, got {reprlib.repr(value)}")
    return array.astype(np.float64, copy=False)
