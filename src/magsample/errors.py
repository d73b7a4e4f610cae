"""Exception hierarchy for the magsample package.

Everything raised on purpose derives from :class:`MagsampleError`, so callers
can catch package failures with a single except clause. Errors caused by
invalid input values also derive from ``ValueError``; the LP solver failure
derives from ``RuntimeError`` because it can occur on valid input.
"""


class MagsampleError(Exception):
    """Base class for errors raised by magsample."""


class DomainError(MagsampleError, ValueError):
    """An input value lies outside the mathematical domain of an operation."""


class RangeError(MagsampleError, ValueError):
    """A magnification falls outside the range an object is defined on."""


class ParameterError(MagsampleError, ValueError):
    """A configuration parameter violates its documented constraints."""


class FeasibilityError(MagsampleError, ValueError):
    """No admissible source magnification exists for a requested target."""


class ShapeError(MagsampleError, ValueError):
    """An array argument has the wrong dimensions."""


class DegenerateInputError(MagsampleError, ValueError):
    """Input is structurally valid but degenerate (e.g. an all-zero matrix)."""


class SolverError(MagsampleError, RuntimeError):
    """The LP solver could not produce a certified solution."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class FormatError(MagsampleError, ValueError):
    """A file does not conform to its documented format.

    It reads ``<path>: line <line>: <message>``, leaving out what is None;
    :mod:`magsample.csvio`, which opens each input file, sets ``path``.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.message, self.line, self.path = message, line, None

    def __str__(self):
        line = None if self.line is None else f"line {self.line}"
        return ": ".join(str(p) for p in (self.path, line, self.message) if p is not None)
