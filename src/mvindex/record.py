"""``Record``: the base of mvindex's records, plain slotted classes that
compare by value.

A record names its fields, in constructor order, in ``_fields`` and sets
them in its own ``__init__``.  Equality, hashing and ``repr`` read those
fields only, so a slot derived from them on construction takes no part in
any of the three.  A record equals only a record of its own class with
equal fields, and hashes as the tuple of its fields; a record with mutable
parts sets ``__hash__ = None``.  Records are not assigned after
construction: build a new one instead.  They are not dataclasses, because
importing ``dataclasses`` and generating the methods of each class made
up most of the time of ``import mvindex``.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"
