"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: argument/input problems exit with 1,
numerical failures (an ill-conditioned recovery) exit with 2.
"""


class TrendFactorsError(Exception):
    """Base class for all package errors."""


class ArgumentError(TrendFactorsError):
    """An argument violates a documented precondition."""


class CsvParseError(ArgumentError):
    """Malformed CSV input; carries row/column location when known."""

    def __init__(self, message, row=None, column=None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.row = row
        self.column = column


class NumericalError(TrendFactorsError):
    """A computation failed for numerical rather than usage reasons."""


class IllConditionedError(NumericalError):
    """A recovery step hit a (near-)singular matrix."""
