"""Shared exception types, the immutable value bases, the enumeration caps
and their admission rule, and the positive-int check."""

DEFAULT_DEGREE_CAP = 8


class EnumerationCapError(RuntimeError):
    """An operation would enumerate more states than its configured cap allows."""


class MeasureFormatError(ValueError):
    """A serialized measure, point, or fraction string failed to parse."""


class Immutable:
    """Base of the slotted value types: assigning any attribute raises.
    Constructors set slots through `object.__setattr__`; a `Record` sets its fields in `__init__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Immutable):
    """Base of the values compared by field: a record equals one of its exact class whose `_fields`
    are equal, and hashes and shows as those fields, which `__init__` sets in order.  A cached or
    derived slot is no field; a record with a mutable field sets `__hash__ = None`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({shown})"


class Caps(Record):
    """The two user-set limits: enumerated tuples and the rank route's matrix
    dimension.  The class attributes are the defaults, which default arguments
    read as `Caps.tuples` and `Caps.matrix`."""

    _fields = ("tuples", "matrix")
    tuples = 10**7
    matrix = 4096

    def __init__(self, tuples: int = tuples, matrix: int = matrix):
        super().__init__(tuples, matrix)


def admit(asked: int, limit: int, what: str) -> None:
    """Refuse work of size `asked` above `limit`; `what` names it, in the plural, with `{}`
    where the amount goes.  An amount too long to read, past 30 digits, shows as a bound."""
    if asked > limit:
        shown = str(asked) if asked < 10**30 else f"2^{asked.bit_length() - 1} or more"
        raise EnumerationCapError(f"{what.format(shown)} exceed the cap {limit}")


def require_positive(**values) -> None:
    """Raise ValueError unless each value is an int >= 1 (bools excluded);
    the keyword names the value in the message."""
    for name, v in values.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"{name} must be an int >= 1, got {v!r}")
