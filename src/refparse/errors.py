"""Exception types shared across the toolkit, and the type check that the
config constructors share.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
everything else derived from RefparseError -> 3.
"""

import numbers


class RefparseError(Exception):
    """Base class for all toolkit errors."""


class UsageError(RefparseError):
    """A caller violated a precondition (bad parameter, empty input, ...)."""


class DataError(RefparseError):
    """An input file is malformed (bad markup, unknown labels, ...)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TemplateError(DataError):
    """A style template cannot be applied (bad syntax, missing field)."""


class StructuralError(RefparseError):
    """An in-memory structure violates an invariant (IOB2, offsets, shapes)."""


class NumericError(RefparseError):
    """A numeric computation produced NaN or otherwise went off the rails."""


def check_number(name: str, value, integer: bool = False) -> None:
    """UsageError naming `name` unless `value` is an integer or, when not
    `integer`, any real number; a bool is neither."""
    if isinstance(value, bool) or not isinstance(
        value, numbers.Integral if integer else numbers.Real
    ):
        kind = "an integer" if integer else "a number"
        raise UsageError(f"{name} must be {kind}, got {value!r}")
