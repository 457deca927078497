"""Exception types raised across the package.

Everything derives from :class:`CographMeanError`, itself a ``ValueError``,
so callers that do not care about the precise failure can catch either.
"""


class CographMeanError(ValueError):
    """Base class for all errors raised by this package."""


class RangeError(CographMeanError):
    """A closed-form or search parameter is outside its stated range."""


class OrderOutOfRange(RangeError):
    """Graph or cotree order outside the supported/configured range."""


class LoopEdge(CographMeanError):
    """An edge joins a vertex to itself."""


class VertexOutOfRange(CographMeanError):
    """A vertex index or subset bit lies outside 0..order-1."""


class MalformedHeader(CographMeanError):
    """The order header of a graph6 string is invalid."""


class TruncatedBits(CographMeanError):
    """The bit body of a graph6 string is too short or unreadable."""


class TrailingGarbage(CographMeanError):
    """A graph6 string carries extra bytes or nonzero padding bits."""


class EmptySubset(CographMeanError):
    """A vertex-subset argument is empty where a nonempty one is required."""


class CotreeSyntaxError(CographMeanError):
    """A cotree expression fails to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(CographMeanError):
    """An internal cotree node has fewer than two children."""


class NotACograph(CographMeanError):
    """The graph contains an induced path on four vertices."""


class LeafOutOfRange(CographMeanError):
    """A cotree leaf index lies outside 0..leaf_count-1."""


class ZeroPolynomial(CographMeanError):
    """A mean or density was requested for the zero polynomial."""


class ProbabilityOutOfRange(CographMeanError):
    """A reliability probability is not strictly between 0 and 1."""


class UnknownFamily(CographMeanError):
    """An unrecognized family name was supplied."""


class NoWitnessFound(CographMeanError):
    """An existence search completed without finding a witness."""


class ConfigError(CographMeanError):
    """A configuration value or a file it names cannot be used."""
