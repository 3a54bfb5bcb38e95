"""Shared exception types."""


class PalfactError(Exception):
    """Base class for library-specific errors."""


class ParseError(PalfactError):
    """A word or stream specification could not be parsed."""

    def __init__(self, message, token=None):
        super().__init__(message)
        self.token = token


class CapExceeded(PalfactError):
    """A materialization request went past the configured symbol cap."""


class AmbiguousHorizon(PalfactError):
    """The inspected prefix is too short to commit to a classification."""


class SearchCapExceeded(PalfactError):
    """An exhaustive search hit its node budget before finishing."""

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = nodes


class WorkerDied(PalfactError):
    """A worker process of the suite pool ended without returning a result."""
