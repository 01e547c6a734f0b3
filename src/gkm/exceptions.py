"""Error types raised across the package."""


class GkmError(Exception):
    """Base class for all library errors."""


class EmptyEdgeSetError(GkmError):
    """The edge universe is empty (e.g. every pair is labeled-labeled)."""


class InvalidKError(GkmError):
    """k-NN construction requested with k >= n."""


class InvalidLabelError(GkmError, ValueError):
    """A label is outside the accepted set for the operation."""


class ParseError(GkmError):
    """A data file line could not be parsed; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateSplitError(GkmError):
    """Label hiding would remove every labeled point of some class."""


class NoLabeledDataError(GkmError):
    """Training requires at least one labeled point."""


class NonFiniteStateError(GkmError):
    """A coefficient or decision value became non-finite during training."""


class EdgeEnumerationTooLargeError(GkmError):
    """Exact edge enumeration was requested above the configured cap."""


class DisconnectedUnlabeledError(GkmError):
    """Some unlabeled vertex is unreachable from every labeled vertex."""


class SingularSystemError(GkmError):
    """The propagation linear system could not be solved reliably."""


class NotConvergedError(GkmError):
    """The reference optimizer did not reach its tolerance within budget."""


class InfeasibleSigmaError(GkmError):
    """The recommended output scale would be non-positive."""
