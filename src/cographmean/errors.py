"""Exception types raised across the package, and the one order-range rule.

Everything derives from :class:`CographMeanError`, itself a ``ValueError``,
so callers that do not care about the precise failure can catch either.

Every order range the package enforces, from a graph's 1..64 to a suite's
``--nmax``, is checked by :func:`check_order`, so each fails the same way:
:class:`OrderOutOfRange` with the message ``"{what} supports {lo}..{hi},
got {n}"``.  Parameters that are not orders (a closed form's part size, a
theta graph's path lengths) raise :class:`RangeError` instead.
"""

from math import inf


class CographMeanError(ValueError):
    """Base class for all errors raised by this package."""


class RangeError(CographMeanError):
    """A closed-form or search parameter is outside its stated range."""


class OrderOutOfRange(RangeError):
    """Graph or cotree order outside the supported/configured range."""


def check_order(what: str, n: int, lo: int, hi: float = inf) -> None:
    """Raise :class:`OrderOutOfRange` unless ``lo <= n <= hi``; ``what``
    names the entry point, and the default ``hi`` leaves the range open."""
    if not lo <= n <= hi:
        raise OrderOutOfRange(f"{what} supports {lo}..{hi}, got {n}")


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
