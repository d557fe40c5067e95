"""The one base of the package's record classes, and the one check of their whole numbers.

A record subclasses `record(name, fields)`, a named tuple, with
`__slots__ = ()`, and checks its fields and fills its `None` defaults in
`__new__`. The base does not generate and compile `__init__`, `__eq__` and
`__repr__` source for each class, which took about 1 ms a class at import.
`check_count` is the one check of a count, order or size; each message names
the value as its caller knows it, by its flag (`--jobs`) in a command's record.
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
    """Whether `value` is an int and not a bool, as every count, order and size must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_count(value, name: str, low: int = 1, high: int | None = None) -> None:
    """Reject a `value` that is not an int (a bool is not) in `low..high`, naming it `name`."""
    if not is_count(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
