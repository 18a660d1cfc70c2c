"""Exception types shared across the package."""

__all__ = ["ParseError", "NumericalError", "UsageError"]


class ParseError(ValueError):
    """An input file (edge list, attribute table, or document) is malformed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to produce a usable result."""


class UsageError(ValueError):
    """A command-line invocation is inconsistent (bad flag combination, bad mode)."""
