"""Exception types shared across the package."""


class GraphInputError(ValueError):
    """Raised when a graph construction receives invalid input."""


class Graph6ParseError(GraphInputError):
    """Raised on malformed graph6 text; carries the byte offset of the fault."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


class UsageError(ValueError):
    """Raised when a caller passes an argument outside what an operation
    accepts: an unknown id, kind or class, a bad count or bound, a spec that
    does not validate, or a vertex or vertex set outside the graph."""


class CapacityError(RuntimeError):
    """Raised when an exponential operation is asked to exceed its guard."""


class UnsupportedOracleError(ValueError):
    """Raised when an interval oracle is requested for a closure-rule convexity."""
