"""Shared exception types, the default enumeration caps, and the positive-int
argument check."""

DEFAULT_TUPLE_CAP = 10**7
DEFAULT_MATRIX_CAP = 4096
DEFAULT_DEGREE_CAP = 8


class EnumerationCapError(RuntimeError):
    """An operation would enumerate more states than its configured cap allows."""


class MeasureFormatError(ValueError):
    """A serialized measure, point, or fraction string failed to parse."""


def require_positive(**values) -> None:
    """Raise ValueError unless each value is an int >= 1 (bools excluded);
    the keyword names the value in the message."""
    for name, v in values.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"{name} must be an int >= 1, got {v!r}")
