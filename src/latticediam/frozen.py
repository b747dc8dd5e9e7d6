"""Immutable value classes, written out as plain classes.

A subclass of Frozen lists its fields in _fields, in constructor order, and
sets each of them once in its own __init__, by object.__setattr__(self,
"name", value), as the dataclass-generated __init__ did. That keeps the
values in the instance's inline slots: no per-instance dict is built, and
attribute reads stay fast. It then behaves as @dataclass(frozen=True) did:

- it equals an object of its own class with equal fields, and returns
  NotImplemented for any other class;
- it hashes as the tuple of its fields;
- its repr is Name(field=value!r, ...);
- assigning or deleting an attribute raises AttributeError.

A subclass of Ordered is also ordered by the tuple of its fields, as
@dataclass(frozen=True, order=True) was.

The standard-library decorator would load inspect, ast, dis and tokenize,
and build and compile each class's methods from source at import: more than
half of the package's import time. Here every class shares the methods
below; the field tuple they compare and hash is read by an
operator.attrgetter built once per class.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Frozen", "Ordered"]


class Frozen:
    """Base of the package's immutable value classes."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("_fields")
        if not fields:
            return
        if len(fields) == 1:
            # attrgetter of one name returns the bare value, not a 1-tuple.
            get = attrgetter(fields[0])
            cls._values = property(lambda self: (get(self),))
        else:
            cls._values = property(attrgetter(*fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Ordered(Frozen):
    """A Frozen class ordered by the tuple of its fields."""

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values < other._values
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._values <= other._values
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._values > other._values
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._values >= other._values
        return NotImplemented
