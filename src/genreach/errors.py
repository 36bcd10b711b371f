"""Exception types shared across the solver suite.

One class per exit code of the command line, plus the base class and the
one a caller catches by name; broken solver invariants are assertions.
"""


class GenReachError(Exception):
    """Base class for every error raised by this package."""


class GameParseError(GenReachError):
    """Malformed game or formula text; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class UnsupportedInputError(GenReachError):
    """Well-formed input the chosen routine refuses: a game outside its
    subclass, a cap exceeded, a missing init vertex, a bad family size,
    a strategy's move along a non-edge."""


class BudgetExceededError(GenReachError):
    """A bounded search ran out of its node budget."""


class StrategyPartialError(GenReachError):
    """A strategy has no next-move for a configuration that was reached."""
