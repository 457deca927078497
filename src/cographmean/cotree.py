"""Canonical cotrees: the structural representation of cographs.

A cotree is a rooted tree whose leaves are vertices and whose internal
nodes are Union (disjoint union) or Join (union plus all cross edges).
Canonical form flattens nested same-kind nodes, so Union and Join levels
alternate, and sorts children by their printed expression.  Two cotrees
canonicalize equal iff they describe isomorphic cographs.

Surface syntax::

    expr := "L" | "U(" expr { "," expr } ")" | "J(" expr { "," expr } ")"

with at least two arguments per U/J node; whitespace is ignored.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from itertools import chain, combinations_with_replacement, product

from .errors import (
    ArityError, CotreeSyntaxError, NotACograph, OrderOutOfRange, UnknownFamily, check_order,
)
from .graph import (
    MAX_ORDER,
    Graph,
    Value,
    complement,
    connected_components,
    induced_subgraph,
    iter_bits,
)

LEAF = "leaf"
UNION = "union"
JOIN = "join"

_LETTER = {UNION: "U", JOIN: "J"}


class Family(str, Enum):
    """The class families that ``generate`` streams and, but for caterpillars,
    ``verify.extremal_search`` ranges over."""

    COGRAPHS = "cographs"
    CONNECTED_COGRAPHS = "connected-cographs"
    DISCONNECTED_COGRAPHS = "disconnected-cographs"
    CONNECTED_GRAPHS = "connected-graphs"
    CATERPILLARS = "caterpillars"

    @classmethod
    def _missing_(cls, value: object) -> None:
        raise UnknownFamily(f"unknown family {value!r}")


# The root kinds of the cotrees of order >= 2 of each cotree family, Join
# first, since every Join form sorts first ("J" < "U").
ROOT_KINDS = {
    Family.COGRAPHS: (JOIN, UNION),
    Family.CONNECTED_COGRAPHS: (JOIN,),
    Family.DISCONNECTED_COGRAPHS: (UNION,),
}


def _cotree_family(family: Family | str) -> Family:
    """``family`` as a member of ``Family`` that ``ROOT_KINDS`` keys."""
    family = Family(family)
    if family not in ROOT_KINDS:
        raise UnknownFamily(f"{family.value} is not a cotree family")
    return family


def _root_kinds(n: int, family: Family) -> tuple[str, ...]:
    """The root kinds of the order-n cotrees of a cotree family: at order 1
    the lone leaf, which is connected, else ``ROOT_KINDS``."""
    if n == 1:
        return () if family is Family.DISCONNECTED_COGRAPHS else (LEAF,)
    return ROOT_KINDS[family]


class Cotree(Value):
    """Immutable cotree node.

    Each node stores its printed expression in ``form`` when it is built.
    Equality and hashing read only ``form``.  The printed expression
    determines the ordered tree, so this is the same relation as structural
    equality of kind and children, at the cost of one string comparison and
    a cached string hash.
    """

    __slots__ = ("kind", "children", "leaf_count", "form")
    _fields = ("kind", "children")

    def __init__(self, kind: str, children: tuple[Cotree, ...] = ()):
        children = tuple(children)
        if kind == LEAF:
            if children:
                raise ValueError("a leaf cannot have children")
            self._store(kind, children, 1, "L")
        elif kind in (UNION, JOIN):
            if len(children) < 2:
                raise ArityError(
                    f"{_LETTER[kind]} node needs at least 2 children, "
                    f"got {len(children)}"
                )
            form = _LETTER[kind] + "(" + ",".join(c.form for c in children) + ")"
            self._store(kind, children, sum(c.leaf_count for c in children), form)
        else:
            raise ValueError(f"unknown cotree node kind {kind!r}")

    def _key(self) -> tuple[str]:
        return (self.form,)


LEAF_TREE = Cotree(LEAF)


def format_cotree(t: Cotree) -> str:
    """Printed expression of a cotree; canonical trees round-trip exactly."""
    return t.form


def canonicalize(t: Cotree) -> Cotree:
    """Flatten nested same-kind nodes and sort children by printed form."""
    if t.kind == LEAF:
        return t
    flat: list[Cotree] = []
    for child in t.children:
        c = canonicalize(child)
        if c.kind == t.kind:
            flat.extend(c.children)
        else:
            flat.append(c)
    flat.sort(key=format_cotree)
    return Cotree(t.kind, tuple(flat))


def compose(kind: str, groups: Iterable[tuple[Sequence[Cotree], int]]) -> Iterator[Cotree]:
    """Every tree with root ``kind`` whose children are, for each
    ``(candidates, j)`` of ``groups``, j of ``candidates`` with repetition.
    With distinct canonical candidates, none of kind ``kind``, each tree is
    canonical and comes once: sorting the children by printed form is all
    :func:`canonicalize` would do."""
    for combo in product(*(combinations_with_replacement(c, j) for c, j in groups)):
        yield Cotree(kind, tuple(sorted(chain.from_iterable(combo), key=format_cotree)))


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_node(text: str, pos: int, depth: int = 0) -> tuple[Cotree, int]:
    if pos >= len(text):
        raise CotreeSyntaxError("unexpected end of input", pos)
    ch = text[pos]
    if ch == "L":
        return LEAF_TREE, pos + 1
    if ch in "UJ":
        if depth == MAX_ORDER:
            # Each of these nested nodes has a second child, so the tree has
            # more leaves than any graph; stop before the recursion limit.
            raise OrderOutOfRange(
                f"cotree nests more than {MAX_ORDER} nodes deep, so it has more "
                f"than {MAX_ORDER} leaves (at position {pos})"
            )
        kind = UNION if ch == "U" else JOIN
        pos = _skip_ws(text, pos + 1)
        if pos >= len(text) or text[pos] != "(":
            raise CotreeSyntaxError("expected '('", pos)
        pos = _skip_ws(text, pos + 1)
        children = []
        while True:
            child, pos = _parse_node(text, pos, depth + 1)
            children.append(child)
            pos = _skip_ws(text, pos)
            if pos >= len(text):
                raise CotreeSyntaxError("expected ',' or ')'", pos)
            if text[pos] == ",":
                pos = _skip_ws(text, pos + 1)
                continue
            if text[pos] == ")":
                return Cotree(kind, tuple(children)), pos + 1
            raise CotreeSyntaxError("expected ',' or ')'", pos)
    raise CotreeSyntaxError(f"expected 'L', 'U' or 'J', found {ch!r}", pos)


def parse_cotree(text: str, canonical: bool = True) -> Cotree:
    """Parse a cotree expression and return its canonical form, or with
    ``canonical=False`` the tree as written, whose leaves are numbered left
    to right as in the text."""
    pos = _skip_ws(text, 0)
    tree, pos = _parse_node(text, pos)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise CotreeSyntaxError("unexpected trailing input", pos)
    return canonicalize(tree) if canonical else tree


def cotree_to_graph(t: Cotree) -> Graph:
    """Realize a cotree as a graph; leaves become vertices left to right."""
    n = t.leaf_count
    check_order("cotree realization", n, 1, MAX_ORDER)
    adj = [0] * n

    def visit(node: Cotree, offset: int) -> None:
        if node.kind == LEAF:
            return
        spans = []
        off = offset
        for child in node.children:
            spans.append(((1 << child.leaf_count) - 1) << off)
            visit(child, off)
            off += child.leaf_count
        if node.kind == JOIN:
            whole = 0
            for m in spans:
                whole |= m
            for m in spans:
                others = whole & ~m
                for v in iter_bits(m):
                    adj[v] |= others

    visit(t, 0)
    return Graph._make(n, tuple(adj))


def graph_to_cotree_with_leaves(g: Graph) -> tuple[Cotree, tuple[int, ...]]:
    """The canonical cotree of a cograph, and the leaf index of each vertex.

    Recursion: a single vertex is a leaf; a disconnected graph is the Union
    of its components; a graph with disconnected complement is the Join of
    the subgraphs induced by the complement's components.  Anything else
    contains an induced four-vertex path and raises NotACograph.

    A component is connected and an anti-component has a connected
    complement, so the kinds already alternate; sorting each node's children
    by printed form is all that ``canonicalize`` would add, and the vertices
    are sorted along with them.  Vertex ``v`` of ``g`` is leaf ``leaf[v]``
    (counted left to right) of the returned tree.
    """

    def build(sub: Graph, verts: tuple[int, ...]) -> tuple[Cotree, tuple[int, ...]]:
        if sub.order == 1:
            return LEAF_TREE, verts
        kind, parts = UNION, connected_components(sub)
        if len(parts) == 1:
            kind, parts = JOIN, connected_components(complement(sub))
            if len(parts) == 1:
                raise NotACograph(
                    f"graph has a connected order-{sub.order} subgraph "
                    "with connected complement"
                )
        children = sorted(
            (
                build(induced_subgraph(sub, m), tuple(verts[i] for i in iter_bits(m)))
                for m in parts
            ),
            key=lambda child: child[0].form,
        )
        return (
            Cotree(kind, tuple(t for t, _ in children)),
            tuple(v for _, vs in children for v in vs),
        )

    tree, order = build(g, tuple(range(g.order)))
    leaf = [0] * g.order
    for i, v in enumerate(order):
        leaf[v] = i
    return tree, tuple(leaf)


def graph_to_cotree(g: Graph) -> Cotree:
    """Recover the canonical cotree of a cograph (see :func:`graph_to_cotree_with_leaves`)."""
    return graph_to_cotree_with_leaves(g)[0]


def is_cograph(g: Graph) -> bool:
    try:
        graph_to_cotree(g)
    except NotACograph:
        return False
    return True


def complement_cotree(t: Cotree) -> Cotree:
    """Cotree of the complement graph: swap Union and Join throughout."""

    def swap(node: Cotree) -> Cotree:
        if node.kind == LEAF:
            return node
        kind = JOIN if node.kind == UNION else UNION
        return Cotree(kind, tuple(swap(c) for c in node.children))

    return canonicalize(swap(t))


def is_connected_cograph(t: Cotree) -> bool:
    """The realized graph is connected iff the root is Join or a lone leaf."""
    return t.kind != UNION


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def edgeless(n: int) -> Cotree:
    """The empty graph on n vertices."""
    check_order("edgeless graph", n, 1, MAX_ORDER)
    if n == 1:
        return LEAF_TREE
    return Cotree(UNION, (LEAF_TREE,) * n)


def complete(n: int) -> Cotree:
    """The complete graph on n vertices."""
    check_order("complete graph", n, 1, MAX_ORDER)
    if n == 1:
        return LEAF_TREE
    return Cotree(JOIN, (LEAF_TREE,) * n)


def star(n: int) -> Cotree:
    """The star on n vertices: one center joined to n-1 independent leaves."""
    check_order("star", n, 1, MAX_ORDER)
    if n == 1:
        return LEAF_TREE
    if n == 2:
        return Cotree(JOIN, (LEAF_TREE, LEAF_TREE))
    return Cotree(JOIN, (LEAF_TREE, Cotree(UNION, (LEAF_TREE,) * (n - 1))))


def complete_bipartite(s: int, t: int) -> Cotree:
    """The complete bipartite graph with parts of sizes s and t."""
    check_order("complete bipartite part", min(s, t), 1, MAX_ORDER - 1)
    check_order("complete bipartite graph", s + t, 2, MAX_ORDER)
    return canonicalize(Cotree(JOIN, (edgeless(s), edgeless(t))))


def skillet(n: int) -> Cotree:
    """The n-skillet: one universal vertex joined to K_1 together with K_{n-2}."""
    check_order("skillet", n, 3, MAX_ORDER)
    return canonicalize(
        Cotree(JOIN, (LEAF_TREE, Cotree(UNION, (LEAF_TREE, complete(n - 2)))))
    )
