"""Exception types shared across the package."""


class StreamError(Exception):
    """Base class for stream and sketch processing errors."""


class SelfLoopError(StreamError):
    """An update event with both endpoints equal."""


class InvalidVertexError(StreamError):
    """A vertex id outside the declared range 0..n-1."""


class NegativeMultiplicityError(StreamError):
    """An update would drive an edge multiplicity below zero."""


class SeedMismatchError(StreamError):
    """Attempt to merge sketches built with different seeds or dimensions."""


class SpaceExceededError(StreamError):
    """Measured sketch state passed the configured byte cap."""


class MultiplicityOverflowError(StreamError):
    """An insertion would push the stream's live multiplicity past what a sketch count holds."""


class InsertionOnlyViolationError(StreamError):
    """A deletion event fed to an insertion-only certifier."""


class StreamFormatError(StreamError):
    """Malformed stream file; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
