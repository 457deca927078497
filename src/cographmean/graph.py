"""Simple undirected graphs on up to 64 vertices with bitmask adjacency.

Vertices are the dense integers 0..order-1.  A vertex subset is a plain
``int`` bitmask over those positions, so a subset fits in one machine word
and set algebra is bit algebra.  Graphs are immutable values; every
operation here is pure.

``Graph(order, adj)`` and the parsers check their input; ``complement`` and
``induced_subgraph`` build from a valid graph with the unchecked ``Graph._make``.

The interchange format is graph6: an N(n) header byte (``~`` and three
for n >= 63, or ``~~`` and six) followed by the triangle code of
:func:`_triangle_code`, packed six bits per printable byte at offset 63,
zero-padded.  That code is the one layout of the upper triangle: the
canonical forms of :mod:`cographmean.enumeration` are minimal codes in it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import (
    EmptySubset,
    LoopEdge,
    MalformedHeader,
    TrailingGarbage,
    TruncatedBits,
    VertexOutOfRange,
    check_order,
)

MAX_ORDER = 64

# A vertex subset: bit v set <=> vertex v is in the subset.
VertexSubset = int


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Value:
    """Immutable value: ``__slots__`` names what it stores, ``_fields`` its
    constructor's arguments.  The plain ``__init__`` takes the fields by
    position or by name and fills any left out from ``_defaults``; a type
    that checks its input writes its own, which calls ``_store``.  ``_make``
    stores unchecked, for values valid by construction.  Values are equal
    when their class and ``_key()`` (by default the fields) are."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        name = type(self).__qualname__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} fields, got {len(args)}")
        values = dict(zip(self._fields, args))
        for key in kwargs:
            if key in values:
                raise TypeError(f"{name}() got field {key!r} twice")
            if key not in self._fields:
                raise TypeError(f"{name}() has no field {key!r}")
        values = self._defaults | values | kwargs
        missing = [key for key in self._fields if key not in values]
        if missing:
            raise TypeError(f"{name}() is missing {', '.join(missing)}")
        self._store(*[values[key] for key in self._fields])

    def _store(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _make(cls, *values):
        self = object.__new__(cls)
        self._store(*values)
        return self

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), tuple(self._asdict().values())

    def replace(self, **changes):
        """A copy with some constructor arguments changed, checked as a new value."""
        return type(self)(**(self._asdict() | changes))


class Graph(Value):
    """Immutable simple graph; ``adj[v]`` is the neighbor bitmask of v."""

    __slots__ = _fields = ("order", "adj")

    def __init__(self, order: int, adj: tuple[int, ...]):
        adj = tuple(adj)
        check_order("graph", order, 1, MAX_ORDER)
        if len(adj) != order:
            raise ValueError("adjacency tuple length does not match order")
        full = (1 << order) - 1
        for v, mask in enumerate(adj):
            if mask >> v & 1:
                raise LoopEdge(f"vertex {v} is adjacent to itself")
            if mask & ~full:
                raise VertexOutOfRange(
                    f"adjacency of vertex {v} sets bits beyond position {order - 1}"
                )
        for v, mask in enumerate(adj):
            for u in iter_bits(mask):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")
        self._store(order, adj)

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(m.bit_count() for m in self.adj))

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v) for u in range(self.order) for v in iter_bits(self.adj[u]) if u < v
        ]

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2


def from_edge_list(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse."""
    check_order("graph", order, 1, MAX_ORDER)
    adj = [0] * order
    for u, v in edges:
        if not (0 <= u < order and 0 <= v < order):
            raise VertexOutOfRange(f"edge ({u},{v}) leaves 0..{order - 1}")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(order, tuple(adj))


def complement(g: Graph) -> Graph:
    """Edge uv present in the result iff absent in ``g``; an involution."""
    full = g.full_mask
    return Graph._make(
        g.order, tuple(full & ~mask & ~(1 << v) for v, mask in enumerate(g.adj))
    )


def _component(adj: tuple[int, ...], mask: int, seed: int) -> int:
    """Bitmask of the component of ``seed`` inside the induced subgraph on ``mask``."""
    reached = seed
    frontier = seed
    while frontier:
        nbrs = 0
        for v in iter_bits(frontier):
            nbrs |= adj[v]
        frontier = nbrs & mask & ~reached
        reached |= frontier
    return reached


def is_connected_subset(g: Graph, subset: VertexSubset) -> bool:
    """True iff the subgraph induced by ``subset`` is connected.

    A single vertex counts as connected.  Raises EmptySubset for the empty
    mask and VertexOutOfRange for bits beyond the host graph.
    """
    if subset == 0:
        raise EmptySubset("cannot test connectivity of the empty vertex set")
    if subset & ~g.full_mask:
        raise VertexOutOfRange("subset has bits beyond the host graph")
    return _component(g.adj, subset, subset & -subset) == subset


def is_connected(g: Graph) -> bool:
    return _component(g.adj, g.full_mask, 1) == g.full_mask


def connected_components(g: Graph) -> list[VertexSubset]:
    """Partition of the vertex set into maximal connected subsets.

    Ordered by smallest contained vertex index.
    """
    remaining = g.full_mask
    out = []
    while remaining:
        comp = _component(g.adj, remaining, remaining & -remaining)
        out.append(comp)
        remaining &= ~comp
    return out


def induced_subgraph(g: Graph, subset: VertexSubset) -> Graph:
    """Subgraph induced by ``subset``, vertices relabelled densely in order."""
    if subset == 0:
        raise EmptySubset("cannot induce on the empty vertex set")
    if subset & ~g.full_mask:
        raise VertexOutOfRange("subset has bits beyond the host graph")
    verts = list(iter_bits(subset))
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for i, v in enumerate(verts):
        for u in iter_bits(g.adj[v] & subset):
            adj[i] |= 1 << index[u]
    return Graph._make(len(verts), tuple(adj))


# ---------------------------------------------------------------------------
# graph6 encoding
# ---------------------------------------------------------------------------


def _decode_order(data: str) -> tuple[int, int]:
    """Decode the N(n) header: one byte, ``~`` and three, or ``~~`` and six,
    six bits each; return (n, index of first body byte)."""
    first = ord(data[0]) - 63
    if not 0 <= first <= 63:
        raise MalformedHeader(f"byte {data[0]!r} is outside the graph6 range")
    if data[0] != "~":
        return first, 1
    tildes, size = (2, "eight") if data[1:2] == "~" else (1, "four")
    if len(data) < 4 * tildes:
        raise MalformedHeader(f"extended order header is shorter than {size} bytes")
    n = 0
    for c in data[tildes : 4 * tildes]:
        if not 63 <= ord(c) <= 126:
            raise MalformedHeader("extended order header has bytes outside the graph6 range")
        n = n << 6 | ord(c) - 63
    return n, 4 * tildes


def _triangle_code(n: int, adj: tuple[int, ...]) -> int:
    """The upper triangle of the adjacency matrix as one integer: column by
    column, rows in order within each, the first bit most significant."""
    code = 0
    for col in range(1, n):
        for row in range(col):
            code = code << 1 | adj[row] >> col & 1
    return code


def _triangle_adj(n: int, code: int) -> tuple[int, ...]:
    """The adjacency of an order-n triangle code; inverse of :func:`_triangle_code`."""
    adj = [0] * n
    pos = n * (n - 1) // 2 - 1
    for col in range(1, n):
        for row in range(col):
            if code >> pos & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            pos -= 1
    return tuple(adj)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string, bit-exactly.

    Raises MalformedHeader for a broken N(n) header, OrderOutOfRange for
    n outside 1..64, TruncatedBits when the body is short or unreadable,
    and TrailingGarbage for extra bytes or nonzero padding bits.
    """
    if not text:
        raise MalformedHeader("empty graph6 string")
    n, start = _decode_order(text)
    check_order("graph6", n, 1, MAX_ORDER)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = text[start:]
    if len(body) < nbytes:
        raise TruncatedBits(f"need {nbytes} data bytes for order {n}, got {len(body)}")
    if len(body) > nbytes:
        raise TrailingGarbage(f"{len(body) - nbytes} extra bytes after the bit data")
    code = 0
    for c in body:
        v = ord(c) - 63
        if not 0 <= v <= 63:
            raise TruncatedBits(f"byte {c!r} is outside the graph6 range")
        code = code << 6 | v
    pad = 6 * nbytes - nbits
    # the last byte's remaining bits must be zero padding
    if code & (1 << pad) - 1:
        raise TrailingGarbage("nonzero padding bits")
    return Graph(n, _triangle_adj(n, code >> pad))


def emit_graph6(g: Graph) -> str:
    """Encode a graph as graph6; inverse of :func:`parse_graph6`."""
    n = g.order
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> k & 63)) for k in (12, 6, 0))
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    code = _triangle_code(n, g.adj) << 6 * nbytes - nbits
    return head + "".join(chr(63 + (code >> 6 * i & 63)) for i in reversed(range(nbytes)))
