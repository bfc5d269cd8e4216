"""Exception types shared by the halfcomm modules, and ``check_count``, the
one check of a count: a dimension, a degree, a moment order, a number of
trials or samples, or a seed.  Other checks stay with their callers: of
entries (``FunMonomial``, ``fusion._check_ints``), of coordinate indices
(``FunElement.coordinate``'s message names them), of parsed letters (the
``ParseError`` position is CLI output) and the CLI's argparse counts."""


class PresentationError(ValueError):
    """An operation was applied to an element of the wrong presentation."""


class DimensionMismatchError(ValueError):
    """Operands live over different matrix dimensions."""


class IndexRangeError(ValueError):
    """A generator index lies outside 1..n."""


class DegreeCapError(RuntimeError):
    """The requested computation exceeds the configured degree cap."""


class ClosureSizeError(RuntimeError):
    """A rewrite closure grew past the requested maximum size."""


class ParseError(ValueError):
    """Expression text does not conform to the grammar."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def check_count(value, what="dimension", least=1, error=ValueError):
    """``value``, once it is an ``int`` of at least ``least``; else ``error``
    naming ``what`` and ``value``.  A bool, a float or a numeric string is
    refused, since ``True`` and ``2.0`` compare and hash like ``1`` and ``2``."""
    if type(value) is not int:
        raise error(f"{what} {value!r} is not an int")
    if value < least:
        raise error(f"{what} must be >= {least}, got {value}")
    return value
