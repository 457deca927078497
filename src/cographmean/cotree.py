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

from dataclasses import dataclass, field

from .errors import (
    ArityError,
    CotreeSyntaxError,
    NotACograph,
    OrderOutOfRange,
)
from .graph import (
    MAX_ORDER,
    Graph,
    complement,
    connected_components,
    induced_subgraph,
    iter_bits,
)

LEAF = "leaf"
UNION = "union"
JOIN = "join"

_LETTER = {UNION: "U", JOIN: "J"}


@dataclass(frozen=True)
class Cotree:
    """Immutable cotree node.

    Each node stores its printed expression in ``form`` when it is built.
    Equality and hashing read only ``form``.  The printed expression
    determines the ordered tree, so this is the same relation as structural
    equality of kind and children, at the cost of one string comparison and
    a cached string hash.
    """

    kind: str = field(compare=False)
    children: tuple["Cotree", ...] = field(default=(), compare=False)
    leaf_count: int = field(init=False, compare=False, repr=False)
    form: str = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind == LEAF:
            if self.children:
                raise ValueError("a leaf cannot have children")
            object.__setattr__(self, "leaf_count", 1)
            object.__setattr__(self, "form", "L")
        elif self.kind in (UNION, JOIN):
            if len(self.children) < 2:
                raise ArityError(
                    f"{_LETTER[self.kind]} node needs at least 2 children, "
                    f"got {len(self.children)}"
                )
            object.__setattr__(
                self, "leaf_count", sum(c.leaf_count for c in self.children)
            )
            object.__setattr__(
                self,
                "form",
                _LETTER[self.kind] + "(" + ",".join(c.form for c in self.children) + ")",
            )
        else:
            raise ValueError(f"unknown cotree node kind {self.kind!r}")


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


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_node(text: str, pos: int) -> tuple[Cotree, int]:
    if pos >= len(text):
        raise CotreeSyntaxError("unexpected end of input", pos)
    ch = text[pos]
    if ch == "L":
        return LEAF_TREE, pos + 1
    if ch in "UJ":
        kind = UNION if ch == "U" else JOIN
        pos = _skip_ws(text, pos + 1)
        if pos >= len(text) or text[pos] != "(":
            raise CotreeSyntaxError("expected '('", pos)
        pos = _skip_ws(text, pos + 1)
        children = []
        while True:
            child, pos = _parse_node(text, pos)
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


def parse_cotree(text: str) -> Cotree:
    """Parse a cotree expression and return its canonical form."""
    pos = _skip_ws(text, 0)
    tree, pos = _parse_node(text, pos)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise CotreeSyntaxError("unexpected trailing input", pos)
    return canonicalize(tree)


def cotree_to_graph(t: Cotree) -> Graph:
    """Realize a cotree as a graph; leaves become vertices left to right."""
    n = t.leaf_count
    if n > MAX_ORDER:
        raise OrderOutOfRange(f"cotree has {n} leaves, graph cap is {MAX_ORDER}")
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
    return Graph(n, tuple(adj))


def graph_to_cotree(g: Graph) -> Cotree:
    """Recover the canonical cotree of a cograph.

    Recursion: a single vertex is a leaf; a disconnected graph is the Union
    of its components; a graph with disconnected complement is the Join of
    the subgraphs induced by the complement's components.  Anything else
    contains an induced four-vertex path and raises NotACograph.
    """

    def build(sub: Graph) -> Cotree:
        if sub.order == 1:
            return LEAF_TREE
        comps = connected_components(sub)
        if len(comps) > 1:
            return Cotree(UNION, tuple(build(induced_subgraph(sub, m)) for m in comps))
        anti = connected_components(complement(sub))
        if len(anti) > 1:
            return Cotree(JOIN, tuple(build(induced_subgraph(sub, m)) for m in anti))
        raise NotACograph(
            f"graph has a connected order-{sub.order} subgraph with connected complement"
        )

    return canonicalize(build(g))


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
    return t.kind == JOIN or t.leaf_count == 1


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def _require_order(n: int, minimum: int, what: str) -> None:
    if not minimum <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"{what} needs order in {minimum}..{MAX_ORDER}, got {n}")


def edgeless(n: int) -> Cotree:
    """The empty graph on n vertices."""
    _require_order(n, 1, "edgeless graph")
    if n == 1:
        return LEAF_TREE
    return Cotree(UNION, (LEAF_TREE,) * n)


def complete(n: int) -> Cotree:
    """The complete graph on n vertices."""
    _require_order(n, 1, "complete graph")
    if n == 1:
        return LEAF_TREE
    return Cotree(JOIN, (LEAF_TREE,) * n)


def star(n: int) -> Cotree:
    """The star on n vertices: one center joined to n-1 independent leaves."""
    _require_order(n, 1, "star")
    if n == 1:
        return LEAF_TREE
    if n == 2:
        return Cotree(JOIN, (LEAF_TREE, LEAF_TREE))
    return Cotree(JOIN, (LEAF_TREE, Cotree(UNION, (LEAF_TREE,) * (n - 1))))


def complete_bipartite(s: int, t: int) -> Cotree:
    """The complete bipartite graph with parts of sizes s and t."""
    if s < 1 or t < 1:
        raise OrderOutOfRange(f"complete bipartite parts must be >= 1, got ({s},{t})")
    _require_order(s + t, 2, "complete bipartite graph")
    return canonicalize(Cotree(JOIN, (edgeless(s), edgeless(t))))


def skillet(n: int) -> Cotree:
    """The n-skillet: one universal vertex joined to K_1 together with K_{n-2}."""
    _require_order(n, 3, "skillet")
    return canonicalize(
        Cotree(JOIN, (LEAF_TREE, Cotree(UNION, (LEAF_TREE, complete(n - 2)))))
    )
