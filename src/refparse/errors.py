"""Exception types shared across the toolkit, the type check that the
config constructors share, and how an error message shows a value.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
everything else derived from RefparseError -> 3.
"""

import math
import numbers

# a message shows an int of more digits by its digit count: Python converts
# none of more than 4300 digits to text
_SHOWN_DIGITS = 40


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
        raise UsageError(f"{name} must be {kind}, got {shown(value)}")


def shown(value) -> str:
    """`value`'s repr for a message, but an int of more than _SHOWN_DIGITS
    digits, alone or in a list, shows as its digit count."""
    if type(value) is list:
        return "[" + ", ".join(map(shown, value)) + "]"
    if isinstance(value, int) and abs(value) >= 10**_SHOWN_DIGITS:
        size = abs(value)
        digits = int(math.log10(size)) + 1  # the float log may be one off
        digits += (10**digits <= size) - (10 ** (digits - 1) > size)
        return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"
    try:
        return repr(value)
    except ValueError:  # e.g. a Fraction or a dict holding such an int
        return f"a {type(value).__name__} too large to show"
