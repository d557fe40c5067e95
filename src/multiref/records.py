"""The one base of the package's record classes.

A record subclasses `record(name, fields)`, a named tuple, with
`__slots__ = ()`, and checks its fields and fills its `None` defaults in
`__new__`. The base does not generate and compile `__init__`, `__eq__` and
`__repr__` source for each class, which took about 1 ms a class at import.
`is_count` is the one test of a whole-number field that the records share.
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


def is_count(value) -> bool:
    """Whether `value` is an int and not a bool, as every count, order and size field must be."""
    return isinstance(value, int) and not isinstance(value, bool)
