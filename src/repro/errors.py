"""Exception hierarchy for the repro package.

Every error raised by the toolchain derives from :class:`ReproError` so
callers can catch one type. Frontend, runtime, and analysis errors are
distinguished so tests can assert on the failing stage.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SourcePosition:
    """A (line, column) position in a mini-Java source file."""

    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int) -> None:
        self.line = line
        self.col = col

    def __repr__(self) -> str:
        return f"{self.line}:{self.col}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SourcePosition)
            and self.line == other.line
            and self.col == other.col
        )

    def __hash__(self) -> int:
        return hash((self.line, self.col))


class LexError(ReproError):
    """Raised when the lexer encounters an invalid character or literal."""

    def __init__(self, message: str, pos: SourcePosition) -> None:
        super().__init__(f"{pos}: {message}")
        self.pos = pos


class ParseError(ReproError):
    """Raised when the parser encounters an unexpected token."""

    def __init__(self, message: str, pos: SourcePosition) -> None:
        super().__init__(f"{pos}: {message}")
        self.pos = pos


class SemanticError(ReproError):
    """Raised for type errors, unknown names, bad modifiers, etc."""

    def __init__(self, message: str, pos: SourcePosition = None) -> None:
        if pos is not None:
            super().__init__(f"{pos}: {message}")
        else:
            super().__init__(message)
        self.pos = pos


class CompileError(ReproError):
    """Raised when bytecode generation fails."""


class VMError(ReproError):
    """Raised for internal virtual-machine errors (not mini-Java throwables)."""


class MiniJavaException(ReproError):
    """An uncaught mini-Java exception escaped to the host.

    ``class_name`` is the mini-Java class of the thrown object and
    ``message`` its message string, if any. ``stdout`` holds the lines
    the program printed before the exception ended its run.
    """

    stdout = ()

    def __init__(self, class_name: str, message: str = "", backtrace=None) -> None:
        text = f"uncaught {class_name}" + (f": {message}" if message else "")
        super().__init__(text)
        self.class_name = class_name
        self.message_text = message
        self.backtrace = list(backtrace or [])


class OutOfMemory(VMError):
    """Internal signal that the simulated heap limit was exhausted.
    When not even the OutOfMemoryError fits and this ends the run,
    ``stdout`` holds the lines the program printed before."""

    stdout = ()


class AnalysisError(ReproError):
    """Raised when a static analysis is asked about unknown code."""


class TransformError(ReproError):
    """Raised when a source transformation is invalid or cannot be applied."""


class ProfileError(ReproError):
    """Raised for malformed profile logs or inconsistent analyzer input."""
