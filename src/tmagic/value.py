"""Equality, hashing and repr for the compared classes, written once."""

from operator import attrgetter


class Value:
    """Compared, hashed and shown by the fields a subclass lists once, as
    ``__slots__ = _fields = (...)`` in its ``__init__``'s order: equal only
    to a value of its own class with equal fields, hashed as the fields'
    tuple, shown as the constructor call.  Other slots take no part."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._key = staticmethod(get if len(cls._fields) > 1
                                else lambda obj: (get(obj),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}"
                         for name, value in zip(self._fields, self._key(self)))
        return f"{self.__class__.__name__}({args})"
