"""Exception types shared across the package."""


class MultirefError(Exception):
    """Base class for all package-specific errors."""


class DegenerateDataError(MultirefError, ValueError):
    """A statistic is undefined for the given data (zero variance, no usable pairs).

    Raised instead of silently returning NaN so that degenerate inputs cannot
    corrupt downstream reports.
    """


class MalformedResponseError(MultirefError, RuntimeError):
    """A chat reply is not a string or could not be parsed into the expected candidate list."""


class TransportError(MultirefError, RuntimeError):
    """The chat endpoint could not be reached or rejected the request."""


class CorpusFormatError(MultirefError, ValueError):
    """A corpus file is malformed; carries the offending path and line number."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        loc = ""
        if path is not None:
            loc = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(loc + message)
