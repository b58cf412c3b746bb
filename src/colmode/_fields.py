"""One number policy for every config field and record.

A real is a finite int or float, numpy scalars included; a count is an
integral real, so 1e5 is a count and 2.5 is not.  bool, str and None are
never numbers: ``true`` never reads as 1 and ``"0.5"`` never as 0.5.  Every
failure is a ValidationError whose message starts with the field's name.
The rule lives in ``check``; a config field declares its kind and bounds with ``checked``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import numbers

from .errors import ValidationError


def _bounded(value, name, above, at_least):
    if above is not None and not value > above:
        raise ValidationError(f"{name} must be > {above:g}, got {value!r}")
    if at_least is not None and not value >= at_least:
        raise ValidationError(f"{name} must be >= {at_least:g}, got {value!r}")
    return value


def real(value, name: str, *, above=None, at_least=None) -> float:
    """value as a float, if it is a finite number within the given bounds."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return _bounded(x, name, above, at_least)
    raise ValidationError(f"{name} must be a finite number, got {value!r}")


def count(value, name: str, *, at_least=None) -> int:
    """value as an int, if it is an integral number within the given bound."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return _bounded(int(value), name, None, at_least)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        x = float(value)
        if math.isfinite(x) and x.is_integer():
            return _bounded(int(x), name, None, at_least)
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def check(kind, value, name: str, **bounds):
    """value as kind: real and count check it under name within bounds; another kind is called."""
    if kind is real or kind is count:
        return kind(value, name, **bounds)
    return kind(value)


def checked(kind, default=dataclasses.MISSING, **bounds):
    """A dataclass field that ConfigFields.__post_init__ checks as kind within bounds."""
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
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ValidationError(f"{cls.__name__} needs a JSON object, got {d!r}")
        fields = dataclasses.fields(cls)
        extra = set(d) - {f.name for f in fields}
        if extra:
            raise ValidationError(f"unknown {cls.__name__} fields: {sorted(extra)}")
        missing = {f.name for f in fields if f.default is dataclasses.MISSING} - set(d)
        if missing:
            raise ValidationError(f"missing {cls.__name__} fields: {sorted(missing)}")
        return cls(**d)

    def digest(self) -> str:
        """Short stable hash of the fields, for provenance."""
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()[:12]
