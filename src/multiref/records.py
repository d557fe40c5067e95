"""The two bases of the package's record classes.

An immutable record subclasses `record(name, fields)`, a named tuple, with
`__slots__ = ()`, and checks its fields in `__new__`. A record with mutable
or cached state is a plain `__slots__` class that subclasses `Fields`.
Neither base generates and compiles `__init__`, `__eq__` and `__repr__`
source for each class, which took about 1 ms a class at import.
"""

from collections import namedtuple


def _replace(self, **changes):
    """A copy with `changes` applied, built through the class so its checks run."""
    return type(self)(**{**self._asdict(), **changes})


def record(name: str, fields: str, defaults=()):
    """A named-tuple base class whose `_replace` builds through the subclass.

    The named tuple's own `_replace` skips `__new__`, and with it the checks.
    """
    base = namedtuple(name, fields, defaults=defaults, module=__name__)
    base._replace = _replace
    return base


class Fields:
    """Equality and repr over the attributes named in `_fields`, for a plain `__slots__` class.

    Two instances are equal when they are of the same class and their fields
    are equal; an instance is unhashable unless its class defines `__hash__`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
