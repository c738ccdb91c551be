"""Exception types shared across the engine.

Parse-shaped problems (bad syntax, misordered streams, heads that fall
outside the supported rule fragment) all subclass ParseError so callers
can map them to one exit path.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ParseError(EngineError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + where)


class RLViolation(ParseError):
    """A complex expression appeared where the fragment only allows a name."""


class OutOfOrder(ParseError):
    """Stream timestamps decreased."""


class StaleTimestamp(EngineError):
    """An ABox arrived at or before an already-loaded timestamp, or outside the window."""


class UnexpectedInconsistency(EngineError):
    """A negative inclusion fired while materializing.

    Seen when repair is disabled. With repair it is raised only if a clash
    survives the repair of a tick, which breaks the engine's invariant.
    """

    def __init__(self, axiom, binding):
        self.axiom = axiom
        self.binding = binding
        super().__init__(f"negative inclusion violated by {binding!r}")


class BudgetExceeded(EngineError):
    """Rewriting a negative inclusion produced more bodies than the cap allows."""


class CapExceeded(EngineError):
    """A brute-force oracle was asked to enumerate beyond its size cap."""
