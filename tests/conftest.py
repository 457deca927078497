"""Shared fixtures and tiny independent oracles.

The oracles here deliberately avoid the library's bitset machinery: BFS
over adjacency lists, permutation scans, and four-subset checks, so that
agreement with the package is meaningful.  The one bitset oracle,
``oracle_esu_counts``, visits every connected set, while the package counts
the sets that are not connected and skips most of them.  The extremal
search oracle scores every class the generators stream, where the package
lists none.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest

from cographmean import Graph, from_edge_list
from cographmean.cotree import JOIN, LEAF_TREE, UNION, Cotree, Family, canonicalize
from cographmean.enumeration import canonical_graph, generate
from cographmean.graph import _triangle_adj, emit_graph6, iter_bits
from cographmean.poly import global_mean, phi_bruteforce, phi_cotree
from cographmean.verify import ExtremalReport, Objective


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run the opt-in long-running checks (order-8 graph sweeps, order-9 pins)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: opt-in long-running check")


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def oracle_connected(g: Graph, subset: int) -> bool:
    """List-based BFS connectivity, independent of the bitset flood fill."""
    verts = [v for v in range(g.order) if subset >> v & 1]
    if not verts:
        raise ValueError("empty subset")
    seen = {verts[0]}
    queue = [verts[0]]
    vset = set(verts)
    while queue:
        v = queue.pop()
        for u in iter_bits(g.adj[v]):
            if u in vset and u not in seen:
                seen.add(u)
                queue.append(u)
    return seen == vset


def oracle_connected_subsets(g: Graph):
    """Every connected vertex subset as an index tuple, by a scan over all subsets."""
    for k in range(1, g.order + 1):
        for sub in combinations(range(g.order), k):
            mask = 0
            for v in sub:
                mask |= 1 << v
            if oracle_connected(g, mask):
                yield sub


def oracle_phi_coeffs(g: Graph) -> tuple[int, ...]:
    """Subset scan over index tuples rather than masks."""
    counts = [0] * g.order
    for sub in oracle_connected_subsets(g):
        counts[len(sub) - 1] += 1
    return tuple(counts)


def oracle_esu_counts(g: Graph, required: int) -> list[int]:
    """Connected sets by size, visiting each one: ESU (Wernicke 2006).

    Indexed like ``poly._count_connected``: entry k counts the connected
    k-sets, or only those holding the vertex bit ``required`` when it is set.
    Each set is reached once, from its smallest vertex or from ``required``;
    ``seen`` holds the set, its neighbourhood and, for global counts, every
    vertex below the root.  Fast enough for the 15-20 vertex cross-checks,
    which the subset scan above is not.
    """
    n, adj = g.order, g.adj
    counts = [0] * (n + 1)
    roots = [required.bit_length() - 1] if required else range(n)
    for root in roots:
        below = 0 if required else (1 << root) - 1
        counts[1] += 1
        stack = [(2, adj[root] & ~below, below | adj[root] | 1 << root)]
        while stack:
            size, ext, seen = stack.pop()
            while ext:
                w = ext & -ext
                ext ^= w
                nbr = adj[w.bit_length() - 1]
                counts[size] += 1
                grown = ext | (nbr & ~seen)
                if grown:
                    stack.append((size + 1, grown, seen | nbr))
    return counts


def oracle_extremal_search(family: Family, order: int, objective: Objective) -> ExtremalReport:
    """The report ``verify.extremal_search`` should give, by scoring every
    class that ``generate`` streams: a cotree by ``phi_cotree``, a graph by
    ``phi_bruteforce``.  The winners are every class of the best mean, each
    printed in canonical form, and the gap is to the next distinct mean."""
    objective = Objective(objective)
    scored = [
        (item, global_mean(phi_cotree(item) if isinstance(item, Cotree) else phi_bruteforce(item)))
        for item in generate(family, order)
    ]
    means = sorted({mean for _, mean in scored}, reverse=objective is Objective.GLOBAL_MEAN_MAX)
    winners = tuple(sorted(
        (item.form if isinstance(item, Cotree) else emit_graph6(canonical_graph(item)), mean)
        for item, mean in scored
        if mean == means[0]
    ))
    gap = abs(means[0] - means[1]) if len(means) > 1 else None
    return ExtremalReport(Family(family).value, order, objective.value, winners, gap)


def has_induced_p4(g: Graph) -> bool:
    """Four-subset scan; the path is the unique 4-vertex graph with degrees 1,1,2,2."""
    for sub in combinations(range(g.order), 4):
        degs = sorted(
            sum(1 for u in sub if u != v and g.has_edge(u, v)) for v in sub
        )
        if degs == [1, 1, 2, 2]:
            return True
    return False


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices, one per edge-set bitmask."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edge_list(
            n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        )


def oracle_min_code(g: Graph, cell_of: tuple[int, ...] | None = None) -> int:
    """Minimal upper-triangle bitstring over all n! permutations, directly.

    With ``cell_of``, only over the permutations that put a vertex of
    ``cell_of[i]`` at every position ``i``.
    """
    best = None
    for perm in permutations(range(g.order)):
        if cell_of and any(not cell_of[i] >> v & 1 for i, v in enumerate(perm)):
            continue
        code = 0
        for col in range(1, g.order):
            for row in range(col):
                code = code << 1 | (g.adj[perm[row]] >> perm[col] & 1)
        if best is None or code < best:
            best = code
    return best


def oracle_graph_classes(n: int) -> tuple[int, ...]:
    """Sorted class codes by the plain scan: every one-vertex extension of
    every class of order n-1, each reduced by the full ``_min_code``."""
    from cographmean.enumeration import _min_code

    if n == 1:
        return (0,)
    seen = set()
    for code in oracle_graph_classes(n - 1):
        base = _triangle_adj(n - 1, code)
        for nbrs in range(1 << (n - 1)):
            adj = tuple(base[v] | (nbrs >> v & 1) << (n - 1) for v in range(n - 1))
            seen.add(_min_code(n, adj + (nbrs,)))
    return tuple(sorted(seen))


def class_codes(n: int) -> tuple[int, ...]:
    """Sorted canonical codes of the classes ``_graph_classes(n)`` builds."""
    from cographmean.enumeration import _graph_classes, _min_code

    return tuple(sorted(_min_code(n, adj) for adj in _graph_classes(n)))


def relabel(g: Graph, perm) -> Graph:
    """Vertex v of ``g`` becomes vertex ``perm[v]``."""
    return from_edge_list(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


def random_cotree(rng: random.Random, n: int, kind: str | None = None) -> Cotree:
    """A uniform-ish random canonical cotree with n leaves."""
    if n == 1:
        return LEAF_TREE
    if kind is None:
        kind = rng.choice((UNION, JOIN))
    k = rng.randint(2, n)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    other = JOIN if kind == UNION else UNION
    children = tuple(random_cotree(rng, p, other) for p in parts)
    return canonicalize(Cotree(kind, children))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0C0A)
