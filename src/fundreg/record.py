"""Plain record classes with the behaviour of a ``@dataclass``.

A record lists its fields in ``__slots__``.  Equality compares them in
that order between instances of one class, and ``repr`` prints them as
``Name(field=value, ...)``, as a dataclass does.  A ``FrozenRecord`` also
refuses assignment after ``__init__`` and hashes its fields.  Defining
these by hand keeps ``dataclasses``, and the ``inspect`` it imports, out
of every command's start-up.
"""

from __future__ import annotations

# Sets a field of a frozen record, from its ``__init__``.
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose ``__init__`` sets its fields with ``set_field``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
