"""Strict dataclass <-> JSON codec for every run-directory artifact.

``to_doc`` encodes a dataclass as a dict in field order, an enum as its
value, and a tuple or array as a list. ``from_doc`` decodes from the field
annotations and rejects unknown or missing keys and wrong JSON types, naming
the dotted key path. Nothing is coerced: no string is read as a number, no
float is truncated to an int, only ``true``/``false`` are booleans, and no
number may be NaN or infinite; an integer is accepted where a float is
expected. Range rules stay in each dataclass's ``__post_init__``. A
dataclass with a ``from_name`` classmethod may also be given as a string
naming a registered instance.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from dataclasses import MISSING
from enum import Enum

import numpy as np

_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "an integer", float: "a number", type(None): "null"}


class DecodeError(ValueError):
    """A document that does not fit its dataclass, located by dotted key path."""

    def __init__(self, path: str, reason: str | None = None):
        self.path, self.reason = path, reason
        super().__init__(self.render("key"))

    def render(self, noun: str) -> str:
        """The message, with ``noun`` saying what the path is a key of."""
        if self.reason is None:
            return f"unknown {noun} {self.path!r}"
        return f"{noun} {self.path!r}: {self.reason}"


def to_doc(obj):
    """Plain JSON values for a dataclass and everything it holds."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_doc(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return [to_doc(v) for v in obj]
    return obj


def from_doc(cls, doc, path: str = ""):
    """Decode ``doc`` as type ``cls``; ``path`` prefixes the key paths in errors."""
    # Python's json reads NaN and Infinity; no field may hold one
    if type(doc) is float and not math.isfinite(doc):
        raise DecodeError(path, "expected a finite number")
    # exact types: bool is an int subclass
    if type(doc) is cls:
        return doc
    origin = typing.get_origin(cls)
    if origin in (typing.Union, types.UnionType):  # only ``X | None`` occurs
        (inner,) = [a for a in typing.get_args(cls) if a is not type(None)]
        return None if doc is None else from_doc(inner, doc, path)
    if origin is tuple:
        if not isinstance(doc, list):
            raise _mismatch(path, "an array", doc)
        args = typing.get_args(cls)
        if args[-1] is Ellipsis:
            args = args[:1] * len(doc)
        if len(args) != len(doc):
            raise DecodeError(path, f"expected {len(args)} items, got {len(doc)}")
        return tuple(from_doc(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, doc)))
    if cls is np.ndarray:
        return np.array(from_doc(tuple[float, ...], doc, path), dtype=np.float64)
    if dataclasses.is_dataclass(cls):
        return _decode_dataclass(cls, doc, path)
    if issubclass(cls, Enum):
        values = [m.value for m in cls]
        if doc not in values:
            raise DecodeError(path, f"expected one of {values}, got {doc!r}")
        return cls(doc)
    if cls is float and type(doc) is int:
        return float(doc)
    raise _mismatch(path, _JSON_NAMES[cls], doc)


def _mismatch(path: str, expected: str, doc) -> DecodeError:
    got = _JSON_NAMES.get(type(doc), type(doc).__name__)
    return DecodeError(path, f"expected {expected}, got {got}")


@functools.cache
def _fields(cls) -> dict[str, tuple[object, bool]]:
    """Field name -> (type, required), resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in dataclasses.fields(cls)
    }


def _decode_dataclass(cls, doc, path: str):
    if isinstance(doc, str) and hasattr(cls, "from_name"):
        try:
            return cls.from_name(doc)
        except ValueError as exc:
            raise DecodeError(path, str(exc)) from exc
    if not isinstance(doc, dict):
        raise _mismatch(path, "an object", doc)
    prefix = f"{path}." if path else ""
    fields = _fields(cls)
    kwargs = {}
    for key, value in doc.items():
        if key not in fields:
            raise DecodeError(prefix + key)
        kwargs[key] = from_doc(fields[key][0], value, prefix + key)
    for name, (_, required) in fields.items():
        if required and name not in doc:
            raise DecodeError(prefix + name, "required key is missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not path:
            raise
        raise DecodeError(path, str(exc)) from exc
