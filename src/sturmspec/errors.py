"""Exception hierarchy, mapped onto CLI exit codes."""


class SturmSpecError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InvalidInputError(SturmSpecError, ValueError):
    """Bad argument: out-of-range parameter, malformed word, shallow tower."""

    exit_code = 2


class NumericError(SturmSpecError, RuntimeError):
    """Numerical failure that more resolution or rescaling did not fix."""

    exit_code = 3


class BoundaryAmbiguityError(SturmSpecError):
    """An orbit point fell on (or too close to) an indicator boundary.

    The offending integer index is kept in ``index``.
    """

    exit_code = 4

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InvalidWordError(InvalidInputError):
    """Symbol outside the declared alphabet."""


class WindowError(InvalidInputError):
    """Requested window exceeds the available data."""


class DepthError(InvalidInputError):
    """Continued-fraction expansion or word tower is too shallow."""


class NotAFixedPointError(InvalidInputError):
    """Seed symbol is not prefix-stable under the substitution."""


class DivergenceError(InvalidInputError):
    """Substitution images never grow; no infinite fixed point exists."""


class ResolutionError(NumericError):
    """Band construction could not isolate the expected number of bands."""
