"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed input text (FA file, KISS2 file, model, answer set)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DecodeError(ValueError):
    """A solver model or answer set does not match the encoding's contract."""


class ResourceLimitError(RuntimeError):
    """A configured cap (visited-set count, variable count) was exceeded."""


class SolverError(RuntimeError):
    """External solver infrastructure failure: bad exit, timeout, empty output."""


class SoundnessError(AssertionError):
    """Two routes that must agree disagreed; indicates a bug, never tolerated."""
