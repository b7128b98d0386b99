"""The one checked path from JSON to the program's dataclasses and numeric arrays."""

from __future__ import annotations

import base64
import functools
import math
import reprlib
import typing

import numpy as np

from .errors import DamagedArtifact

_hints = functools.cache(typing.get_type_hints)


@functools.cache
def _kinds(hint) -> tuple[object, tuple]:
    """A field type, analysed once: the element type of ``tuple[X, ...]`` (None for any
    other type), and the classes a scalar of the type may be (float adding int)."""
    if typing.get_origin(hint) is tuple:  # tuple[int, ...] is a JSON list of integers
        return typing.get_args(hint)[0], ()
    kinds = typing.get_args(hint) or (hint,)  # int | None gives (int, NoneType)
    return None, (kinds + (int,) if float in kinds else kinds)


def fits(value, hint) -> bool:
    """Whether a JSON value is of a field's type; a float field also takes an integer
    but no NaN or infinity, and only a bool field takes true or false."""
    item, kinds = _kinds(hint)
    if item is not None:
        return isinstance(value, (list, tuple)) and all(fits(v, item) for v in value)
    return (isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))
            and (not isinstance(value, float) or math.isfinite(value)))


def _name(hint) -> str:
    return hint.__name__ if isinstance(hint, type) else str(hint)


def _stored(value, hint):
    """A value that fits ``hint`` as its field keeps it: a list as a tuple, an int as a float."""
    item, kinds = _kinds(hint)
    if item is not None:
        return tuple(_stored(v, item) for v in value)
    if type(value) is int and float in kinds:
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


def at_least(owner, low, *fields, sign=">="):
    """Refuse each named field of the dataclass ``owner`` that is below ``low`` (with
    ``sign`` ">", not above it) or NaN, with ``ValueError`` "<Class>.<field> must be
    <sign> <low>, got <value>". A field of type ``X | None`` may be None; any other
    field that is None raises ``TypeError``."""
    for name in fields:
        value = getattr(owner, name)
        if value is None and type(None) in _kinds(_hints(type(owner))[name])[1]:
            continue
        if not (value > low if sign == ">" else value >= low):  # NaN fails either test
            raise ValueError(f"{type(owner).__name__}.{name} must be {sign} {low}, got {value}")


def above(owner, low, *fields):
    """``at_least``'s rule for fields that must exceed ``low`` ("must be > <low>")."""
    at_least(owner, low, *fields, sign=">")


def reader(hint):
    """A function that returns a JSON value of type ``hint`` as a field of it holds it,
    and raises ``ValueError`` for any other value."""
    def read(value):
        if not fits(value, hint):
            raise ValueError(f"expected {_name(hint)}, got {reprlib.repr(value)}")
        return _stored(value, hint)
    return read


#: The dtypes ``encode`` writes, by the kind of number they hold: little-endian float64
#: for floats, and for integers each signed width, narrowest first.
DTYPES = {"f": ("<f8",), "i": ("<i1", "<i2", "<i4", "<i8")}


def encode(array) -> dict:
    """A float or integer array as ``{"dtype", "shape", "data"}``, ``data`` being base64
    of its little-endian bytes in C order: ``<f8`` for floats, and for integers the
    narrowest of ``<i1``, ``<i2``, ``<i4`` and ``<i8`` that holds every entry. A
    non-finite float raises ``ValueError``, as ``json.dumps(allow_nan=False)`` does for
    one outside an array."""
    array = np.asarray(array)
    if array.dtype.kind == "f":
        if not np.isfinite(array).all():
            raise ValueError("an array holds a non-finite float")
        dtype = "<f8"
    else:
        low, high = (int(array.min()), int(array.max())) if array.size else (0, 0)
        dtype = next(name for name in DTYPES["i"]
                     if np.iinfo(name).min <= low and high <= np.iinfo(name).max)
    return {"dtype": dtype, "shape": list(array.shape),
            "data": base64.b64encode(array.astype(dtype, copy=False).tobytes()).decode("ascii")}


def decode(value, kind: str, ndim: int) -> np.ndarray:
    """The read-only array that ``encode`` wrote as ``value``: float64 for ``kind`` "f",
    int64 for "i", of rank ``ndim``.

    A value that is not a JSON object is a list of numbers, as earlier versions
    wrote arrays: ``DamagedArtifact``, "rerun train". An object that is not an
    encoded array of the field's kind and rank raises ``TypeError``: keys other than
    ``dtype``, ``shape`` and ``data``, a ``dtype`` not of ``DTYPES[kind]``, a
    ``shape`` that is not ``ndim`` non-negative integers, or ``data`` that is not
    strict base64 of exactly the shape's bytes (checked before any array is made).
    A non-finite float raises ``ValueError``.
    """
    if not isinstance(value, dict):
        raise DamagedArtifact(f"expected an encoded array, got {reprlib.repr(value)}: "
                              "written by an earlier version; rerun train")
    if value.keys() != {"dtype", "shape", "data"}:
        raise TypeError(f"an encoded array has the keys dtype, shape and data, got "
                        f"{reprlib.repr(sorted(value))}")
    dtype, shape, data = value["dtype"], value["shape"], value["data"]
    if dtype not in DTYPES[kind]:
        raise TypeError(f"dtype {reprlib.repr(dtype)}: the field's entries must be "
                        f"{'floats' if kind == 'f' else 'integers'} ({', '.join(DTYPES[kind])})")
    if not (isinstance(shape, list) and len(shape) == ndim
            and all(type(size) is int and size >= 0 for size in shape)):
        raise TypeError(f"shape {reprlib.repr(shape)}: the field's shape is a list of {ndim} "
                        "non-negative integers")
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError):  # not a string, not ASCII, or not strict base64
        raise TypeError(f"data {reprlib.repr(data)} is not strict base64") from None
    if len(raw) != math.prod(shape) * np.dtype(dtype).itemsize:
        raise TypeError(f"data holds {len(raw)} bytes, not the {dtype} bytes of shape {shape}")
    array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if kind == "f":
        if not np.isfinite(array).all():
            raise ValueError("an encoded array holds a non-finite float")
        return array
    array = array.astype(np.int64)
    array.flags.writeable = False
    return array
