"""Exhaustive, deterministic generators.

Three families of streams, each emitting every isomorphism class exactly
once in a fixed order:

* canonical cotrees with a given number of leaves (optionally filtered to
  connected or disconnected realizations), built by recursive composition
  over integer partitions rather than by filtering graphs;
* non-isomorphic graphs of small order, built by extending each class of
  order n-1 with a new vertex.  An extension is kept only when the new
  vertex lies in the last cell of a colour-refined partition of the
  vertices, a cell chosen without reference to labels, so each class is
  still reached by deleting one of those vertices.  Kept extensions are
  deduplicated on the minimal code over the labellings that respect that
  partition; the first one of each class represents it.  The canonical
  form (the minimal :func:`~cographmean.graph._triangle_code`, the
  upper-triangle layout graph6 prints, over all vertex permutations) is
  computed only for graphs that are printed;
* caterpillar trees, encoded by spine length plus per-spine leaf counts,
  deduplicated under reversal.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from functools import lru_cache

from .cotree import (
    JOIN, LEAF, LEAF_TREE, ROOT_KINDS, UNION, Cotree, Family, _root_kinds, compose,
    format_cotree,
)
# canonicalize is no longer called here; bench/selfcheck.py still checks that
# the tracer wraps it in this namespace.
from .cotree import canonicalize  # noqa: F401
from .errors import UnknownFamily, check_order
from .graph import Graph, _component, _triangle_adj, from_edge_list

# The largest order whose full enumeration (``cographmean enumerate cographs
# N``) was measured to finish within 60 s and 1 GB peak RSS on a 2-core host:
# 15 leaves took 29 s and 649 MB; 16 leaves passed 1 GB before printing.
MAX_COTREE_LEAVES = 15
# On a 2-core host, ``enumerate connected-graphs 8`` took 6-7 s, most of it
# in the canonical forms of its 11,117 lines; building the 12,346 classes
# alone took 2-3 s.  Order 9 built its 274,668 classes in 42 s and 121 MB,
# but would print 261,080 canonical forms.
MAX_GRAPH_ENUM_ORDER = 8
MAX_CATERPILLAR_ORDER = 20


# ---------------------------------------------------------------------------
# cotrees
# ---------------------------------------------------------------------------


def _partitions(total: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into descending parts each at most ``cap``."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, cap), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


@lru_cache(maxsize=None)
def _cotree_pool(leaves: int, root_kind: str) -> tuple[Cotree, ...]:
    """All canonical cotrees with the given root kind, sorted by printed form."""
    if root_kind == LEAF:
        return (LEAF_TREE,)
    other = JOIN if root_kind == UNION else UNION
    out = []
    # Parts of at most leaves - 1 are two or more, the children of one root.
    for parts in _partitions(leaves, leaves - 1):
        out.extend(compose(root_kind, [
            ((LEAF_TREE,) if size == 1 else _cotree_pool(size, other), mult)
            for size, mult in sorted(Counter(parts).items())
        ]))
    out.sort(key=format_cotree)
    return tuple(out)


def enumerate_cotrees(order: int, family: Family = Family.COGRAPHS) -> Iterator[Cotree]:
    """Every canonical cotree of a cotree family with ``order`` leaves, in
    printed lexicographic order."""
    family = Family(family)
    if family not in ROOT_KINDS:
        raise UnknownFamily(f"{family.value} is not a cotree family")
    check_order("cotree enumeration", order, 1, MAX_COTREE_LEAVES)
    return (tree for kind in _root_kinds(order, family) for tree in _cotree_pool(order, kind))


# ---------------------------------------------------------------------------
# non-isomorphic graphs of small order
# ---------------------------------------------------------------------------


def _cells(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    """Colour refinement to an equitable partition, as one cell mask per position.

    A vertex's next colour is its cell together with its number of
    neighbours in each cell.  New cells are ranked by that signature, which
    starts with the old cell's rank, so the order of the cells never depends
    on vertex labels.  Entry ``i`` of the result is the cell whose vertices
    may take position ``i`` of a labelling.
    """
    cells = [(1 << n) - 1]
    while len(cells) < n:
        split: dict[tuple[int, ...], int] = {}
        for rank, cell in enumerate(cells):
            while cell:
                bit = cell & -cell
                cell ^= bit
                a = adj[bit.bit_length() - 1]
                sig = (rank, *[(a & c).bit_count() for c in cells])
                split[sig] = split.get(sig, 0) | bit
        if len(split) == len(cells):
            break
        cells = [split[sig] for sig in sorted(split)]
    return tuple(c for c in cells for _ in range(c.bit_count()))


def _lower_twins(adj: tuple[int, ...]) -> list[int]:
    """For each vertex, the mask of its lower-labelled twins: the vertices
    whose neighbourhood equals its own apart from each other.  Swapping two
    twins is an automorphism."""
    return [
        sum(1 << u for u in range(v) if adj[u] & ~(1 << v) == adj[v] & ~(1 << u))
        for v in range(len(adj))
    ]


def _min_code(n: int, adj: tuple[int, ...], cell_of: tuple[int, ...] | None = None) -> int:
    """Minimal :func:`~cographmean.graph._triangle_code` over all vertex permutations.

    Grows the permutation one position at a time, keeping every prefix that
    still attains the minimal bit string.  A prefix is kept as its placed
    set and, for each vertex, its adjacency column against the prefix (first
    placed vertex most significant; placed vertices read 0).  Prefixes that
    agree on both are interchangeable, so the frontier is deduplicated on
    them; this keeps highly symmetric graphs cheap.

    With ``cell_of`` from :func:`_cells`, position ``i`` may only hold a
    vertex of ``cell_of[i]``.  The labellings searched then do not depend on
    vertex labels, so the result is a complete isomorphism certificate, but
    not the printed form: that is the unrestricted minimum.
    """
    if n == 1:
        return 0
    if cell_of is None:
        cell_of = ((1 << n) - 1,) * n
    # Twins can trade places without changing the code, so each set of twins
    # is placed in label order: a vertex waits until its lower twins are placed.
    waits_for = _lower_twins(adj)
    frontier = {
        (1 << v, tuple(0 if x == v else a >> v & 1 for x, a in enumerate(adj))): None
        for v in range(n)
        if cell_of[0] >> v & 1 and not waits_for[v]
    }
    code = 0
    for pos in range(1, n):
        best = -1
        chosen: list[tuple[int, tuple[int, ...], int]] = []
        cell = cell_of[pos]
        for used, cols in frontier:
            free = cell & ~used
            while free:
                bit = free & -free
                free ^= bit
                w = bit.bit_length() - 1
                if waits_for[w] & ~used:
                    continue
                col = cols[w]
                if best < 0 or col < best:
                    best = col
                    chosen = [(used, cols, w)]
                elif col == best:
                    chosen.append((used, cols, w))
        code = code << pos | best
        if pos == n - 1:
            break
        frontier = {}
        for used, cols, w in chosen:
            used |= 1 << w
            cols = tuple(
                0 if used >> x & 1 else c << 1 | (adj[x] >> w & 1)
                for x, c in enumerate(cols)
            )
            frontier[used, cols] = None
    return code


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of a graph's isomorphism class: the
    relabelling whose triangle code is the minimal :func:`_min_code`.  Its
    graph6 string is the printed form of the class.  The unrestricted search
    keeps every order of a tied independent prefix: nothing of 8 or fewer
    vertices is affected, but a sparse 14-vertex graph can take 3-5 s and
    140 MB on a 2-core Xeon."""
    return Graph._make(g.order, _triangle_adj(g.order, _min_code(g.order, g.adj)))


def _extend(base: tuple[int, ...], nbrs: int) -> tuple[int, ...]:
    """``base`` with a new last vertex whose neighbours are ``nbrs``."""
    new = len(base)
    return tuple(a | (nbrs >> v & 1) << new for v, a in enumerate(base)) + (nbrs,)


def _max_degree_extensions(order: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(base, nbrs)`` for each way to add a vertex of maximum degree, with
    neighbours ``nbrs``, to a class representative ``base`` of order
    ``order - 1``.

    Every class of the given order arises, some more than once: deleting a
    vertex of maximum degree leaves some class, and adding the vertex back
    to its representative is an extension, up to a swap of the base's twins.
    Such a swap fixes the base, so of the neighbour sets that swaps relate
    only the least is tried: the one that takes twins lowest label first.
    """
    if order == 1:
        yield (), 0
        return
    new = order - 1  # the added vertex
    for base in _graph_classes(new):
        top = max(a.bit_count() for a in base)
        at_top = sum(1 << v for v, a in enumerate(base) if a.bit_count() == top)
        twins = [(1 << v, lower) for v, lower in enumerate(_lower_twins(base)) if lower]
        for nbrs in range(1 << new):
            # With fewer than ``top`` neighbours, or with ``top`` and one of
            # them of degree ``top``, the new vertex is not of maximum degree.
            size = nbrs.bit_count()
            if size < top or size == top and nbrs & at_top:
                continue
            if not any(nbrs & bit and lower & ~nbrs for bit, lower in twins):
                yield base, nbrs


@lru_cache(maxsize=None)
def _graph_classes(order: int) -> tuple[tuple[int, ...], ...]:
    """One adjacency tuple per isomorphism class of the given order, in
    build order.

    Of the extensions of :func:`_max_degree_extensions`, one is kept only
    when the new vertex lies in the last cell of :func:`_cells` (McKay 1998,
    "Isomorph-free exhaustive generation", J. Algorithms 26).  That cell
    does not depend on labels and holds only vertices of maximum degree, so
    every class still arises, from any vertex of its last cell.  The kept
    extensions are deduplicated on the cheap cell-restricted code, and the
    first one of each class represents it; a twin swap only ever skips a
    later one.  A representative need not be canonical:
    :func:`canonical_graph` gives the printed form.
    """
    new = order - 1
    seen: dict[int, tuple[int, ...]] = {}
    for base, nbrs in _max_degree_extensions(order):
        adj = _extend(base, nbrs)
        cell_of = _cells(order, adj)
        if cell_of[-1] >> new & 1:
            seen.setdefault(_min_code(order, adj, cell_of), adj)
    return tuple(seen.values())


def enumerate_connected_graphs(order: int) -> Iterator[Graph]:
    """One representative per connected isomorphism class, in build order.

    The representatives need not be in canonical form; map them through
    :func:`canonical_graph` for the printed form.
    """
    check_order("graph enumeration", order, 1, MAX_GRAPH_ENUM_ORDER)
    return _connected_classes(order)


def _connected_classes(order: int) -> Iterator[Graph]:
    """The stream :func:`enumerate_connected_graphs` returns, built lazily."""
    full = (1 << order) - 1
    for adj in _graph_classes(order):
        if _component(adj, full, 1) == full:
            yield Graph._make(order, adj)


# ---------------------------------------------------------------------------
# caterpillars
# ---------------------------------------------------------------------------


def _leaf_profiles(spine: int, total: int) -> Iterator[tuple[int, ...]]:
    """Compositions of ``total`` over ``spine`` slots, end slots >= 1."""

    def rec(prefix: list[int], i: int, rem: int) -> Iterator[tuple[int, ...]]:
        if i == spine - 1:
            if rem >= 1:
                yield tuple(prefix) + (rem,)
            return
        lo = 1 if i == 0 else 0
        for v in range(lo, rem):
            yield from rec(prefix + [v], i + 1, rem - v)

    yield from rec([], 0, total)


def _caterpillar_graph(spine: int, leaves: tuple[int, ...]) -> Graph:
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i, cnt in enumerate(leaves):
        for _ in range(cnt):
            edges.append((i, nxt))
            nxt += 1
    return from_edge_list(nxt, edges)


def _caterpillar_profiles(order: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """``(spine, leaves)`` of one caterpillar per isomorphism class of the
    given order, in the order :func:`enumerate_caterpillars` yields them."""
    for spine in range(1, order):
        extra = order - spine
        if spine == 1:
            yield 1, (extra,)
            continue
        if extra < 2:
            continue
        for leaves in _leaf_profiles(spine, extra):
            if leaves <= leaves[::-1]:
                yield spine, leaves


def enumerate_caterpillars(order: int) -> Iterator[Graph]:
    """One tree per isomorphism class of caterpillars of the given order.

    A caterpillar is a tree whose non-leaf vertices form a path (the spine).
    Spine length k with leaf counts (l_1..l_k), l_1 and l_k positive, is a
    complete invariant up to reversal.
    """
    check_order("caterpillar enumeration", order, 2, MAX_CATERPILLAR_ORDER)
    return (_caterpillar_graph(spine, leaves) for spine, leaves in _caterpillar_profiles(order))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def generate(family: Family, order: int) -> Iterator[Cotree | Graph]:
    """Stream ``family`` at ``order``, every class once, in a fixed order."""
    family = Family(family)
    if family is Family.CONNECTED_GRAPHS:
        return enumerate_connected_graphs(order)
    if family is Family.CATERPILLARS:
        return enumerate_caterpillars(order)
    return enumerate_cotrees(order, family)
