"""Exception types shared across the package."""


class PlatesOlivesError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgument(PlatesOlivesError, ValueError):
    """Raised when a caller's argument is out of range; the CLI reports it as
    a user error, and library callers may still catch it as a ValueError."""


class IllegalMove(PlatesOlivesError):
    """Raised when a move is applied to a state where it is not legal."""


class PrematureEmpty(PlatesOlivesError):
    """Raised when a move sequence returns to the empty table before its last move."""


class NotClosed(PlatesOlivesError):
    """Raised when a move sequence does not start and end on the empty table."""


class CeilingExceeded(PlatesOlivesError):
    """Raised when exhaustive enumeration is requested beyond the configured ceiling."""


class ResourceLimit(PlatesOlivesError):
    """Raised when a counting run exceeds its configured state budget."""


class InvalidWalk(PlatesOlivesError):
    """Raised when a partition sequence is not a valid single-box lattice walk."""
