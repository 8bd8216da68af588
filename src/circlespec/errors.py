"""Shared exception types and the default enumeration caps."""

DEFAULT_TUPLE_CAP = 10**7
DEFAULT_MATRIX_CAP = 4096


class EnumerationCapError(RuntimeError):
    """An operation would enumerate more states than its configured cap allows."""


class MeasureFormatError(ValueError):
    """A serialized measure, point, or fraction string failed to parse."""
