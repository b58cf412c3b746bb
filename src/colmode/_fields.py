"""One number policy and one reader for every config field and record.

A real is a finite int or float, numpy scalars included; a count is an
integral real, so 1e5 is a count and 2.5 is not.  bool, str and None are
never numbers: ``true`` never reads as 1 and ``"0.5"`` never as 0.5.  Every
failure is a ValidationError that names the field.  The rule lives in
``check``; a config field declares its kind and bounds with ``checked``, and
every JSON object is read with ``fields_of``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import math
import numbers
import operator

from .errors import ValidationError

#: bound name: (test the value must pass against the limit, sign in the message)
_BOUNDS = {"above": (operator.gt, ">"), "at_least": (operator.ge, ">="),
           "at_most": (operator.le, "<="), "below": (operator.lt, "<")}


def _bounded(value, name, bounds):
    for bound, limit in bounds.items():
        holds, sign = _BOUNDS[bound]
        if not holds(value, limit):
            raise ValidationError(f"{name} must be {sign} {limit:g}, got {value!r}")
    return value


def real(value, name: str, **bounds) -> float:
    """value as a float, if it is a finite number within bounds (_BOUNDS)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return _bounded(x, name, bounds)
    raise ValidationError(f"{name} must be a finite number, got {value!r}")


def count(value, name: str, **bounds) -> int:
    """value as an int, if it is an integral number within bounds (_BOUNDS)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return _bounded(int(value), name, bounds)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        x = float(value)
        if math.isfinite(x) and x.is_integer():
            return _bounded(int(x), name, bounds)
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def json_object(value, name: str) -> dict:
    """value, if it is a JSON object."""
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return value


def check(kind, value, name: str, **bounds):
    """value as kind, named name.  A ConfigFields class reads value with
    from_dict, another class (an enum) is called on it, and any other kind is
    a function of (value, name, **bounds), as real and count are.  A kind's
    TypeError or ValueError becomes a ValidationError that names the field."""
    if isinstance(kind, type) and issubclass(kind, ConfigFields):
        return kind.from_dict(value, name)
    try:
        return kind(value) if isinstance(kind, type) else kind(value, name, **bounds)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"field '{name}': {exc}" if name else str(exc)) from exc


@contextlib.contextmanager
def fields_of(section, path: str = ""):
    """Yields read(key, kind, default, **bounds): section[key] checked as kind
    within bounds under its path (path.key, or key where path is empty), or
    default when key is absent or null; a key with no default is required.
    When the block ends, a key of section that no read asked for is refused."""
    section, asked = check(json_object, section, path), set()
    prefix = f"{path}." if path else ""

    def read(key, kind, default=dataclasses.MISSING, **bounds):
        asked.add(key)
        if section.get(key) is not None:
            return check(kind, section[key], prefix + key, **bounds)
        if default is dataclasses.MISSING:
            raise ValidationError(f"missing field '{prefix + key}'")
        return default

    yield read
    for key in section:
        if key not in asked:
            raise ValidationError(f"unknown field '{prefix + key}'")


def checked(kind, default=dataclasses.MISSING, **bounds):
    """A dataclass field that ConfigFields checks as kind within bounds."""
    return dataclasses.field(default=default, metadata={"check": (kind, bounds)})


class ConfigFields:
    """Checks, to_dict, from_dict and digest for a frozen config dataclass.  Each
    field is declared with ``checked`` and checked in declaration order (one whose
    default is None may stay None); cross-field checks follow super().__post_init__()."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                kind, bounds = f.metadata["check"]
                object.__setattr__(self, f.name, check(kind, value, f.name, **bounds))

    def to_dict(self) -> dict:
        """Fields in declaration order; enums as their values."""
        return {
            f.name: v.value if isinstance(v := getattr(self, f.name), enum.Enum) else v
            for f in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls, d, path: str = ""):
        """An instance from the JSON object d, each field read under path with
        fields_of, so a key that is no field is refused."""
        with fields_of(d, path) as read:
            values = {}
            for f in dataclasses.fields(cls):
                kind, bounds = f.metadata["check"]
                values[f.name] = read(f.name, kind, f.default, **bounds)
        return cls(**values)

    def digest(self) -> str:
        """Short stable hash of the fields, for provenance."""
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()[:12]
