"""Exception types shared across the package."""


class RecloopError(Exception):
    """Base class for all errors raised by this package."""


class InvalidItem(RecloopError):
    """Item definition is malformed (e.g. empty category set)."""


class IndexOutOfRange(RecloopError):
    """A user/item/category index exceeds the declared dimensions."""


class InvalidRequest(RecloopError):
    """Arguments are structurally valid but violate an operation's preconditions."""


class NumericalError(RecloopError):
    """Non-finite values encountered where finite arithmetic is required."""


class SingularSystem(RecloopError):
    """Fixed-point linear system is singular or too ill-conditioned to trust."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class DegenerateCatalog(RecloopError):
    """Catalog shape makes a theoretical quantity undefined (e.g. single-category mass)."""


class InvalidSlate(RecloopError):
    """A recommendation slate is empty or malformed."""


class NoEdges(RecloopError):
    """Social graph has no edges but an edge-based quantity was requested."""


class ParseError(RecloopError):
    """A dataset file failed to parse; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class IoError(RecloopError):
    """Filesystem failure surfaced with the offending path."""
