"""Workload definitions, seeded inputs and the benchmark's own oracles.

A workload is a list of CLI operations; running each once, in order, is one
pass. Each operation is a fresh ``cographmean`` process.

Nothing here imports the program: graphs, graph6 strings, cotrees and the
tree polynomial are computed by the benchmark itself, so that they can
serve as independent checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("cograph-extremal", "graph-classes", "subset-scan")
SCALES = ("full", "tiny")
# Workloads whose operations together answer one request, a sweep over the
# verify suites: their query is the whole pass. On subset-scan each
# operation is a query of its own.
SWEEPS = ("cograph-extremal", "graph-classes")

# Connected cographs of each order, OEIS A000669; and connected graphs of
# each order, OEIS A001349.
CONNECTED_COGRAPHS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 12, 6: 33, 7: 90, 8: 261,
                      9: 766, 10: 2312, 11: 7068, 12: 21965}
CONNECTED_GRAPHS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@dataclass
class Op:
    """One CLI process: its arguments and how its output is judged.

    ``check`` names the gate rule; ``expect`` is what that rule needs.
    ``items`` is the work the operation counts for ``items_per_s``.
    """

    argv: list[str]
    check: str
    expect: object = None
    items: int = 0
    label: str = ""


# ---------------------------------------------------------------------------
# verify workloads
# ---------------------------------------------------------------------------

# Trees scored by extremal_search in each suite, from the counts above.
def _cotrees(lo: int, hi: int) -> int:
    return sum(CONNECTED_COGRAPHS[n] for n in range(lo, hi + 1))


def _verify_op(suite: str, nmax: int | None, items: int) -> Op:
    argv = ["verify", suite] + ([] if nmax is None else ["--nmax", str(nmax)])
    label = suite if nmax is None else f"{suite}@{nmax}"
    return Op(argv=argv, check="verify", expect=label, items=items, label=label)


def cograph_extremal(scale: str) -> list[Op]:
    if scale == "tiny":
        ops = [
            _verify_op("table1", None, _cotrees(1, 6)),
            _verify_op("star-max", 7, _cotrees(7, 7)),
            _verify_op("disconnected-max", 5, _cotrees(2, 5)),
        ]
    else:
        # default ranges: star-max 7..12, skillet-min 3..12,
        # disconnected-max 2..10, table1 1..6; local-mean and inequalities
        # score no trees through extremal_search. The two long suites are
        # apart, so that the first runs of the short ones fall between them.
        ops = [
            _verify_op("star-max", None, _cotrees(7, 12)),
            _verify_op("disconnected-max", None, _cotrees(2, 10)),
            _verify_op("local-mean", None, 0),
            _verify_op("skillet-min", None, _cotrees(3, 12)),
            _verify_op("table1", None, _cotrees(1, 6)),
            _verify_op("inequalities", None, 0),
        ]
    return ops


def graph_classes(scale: str) -> list[Op]:
    nmax = 5 if scale == "tiny" else 7
    classes = sum(CONNECTED_GRAPHS[n] for n in range(3, nmax + 1))
    return [_verify_op("table2", nmax, classes), _verify_op("path-conjecture", nmax, classes)]


# ---------------------------------------------------------------------------
# graphs, graph6 and cotrees, written independently of the program
# ---------------------------------------------------------------------------


def encode_graph6(adj: list[int]) -> str:
    n = len(adj)
    out = [chr(63 + n)]
    acc = filled = 0
    for col in range(1, n):
        for row in range(col):
            acc = acc << 1 | (adj[row] >> col & 1)
            filled += 1
            if filled == 6:
                out.append(chr(63 + acc))
                acc = filled = 0
    if filled:
        out.append(chr(63 + (acc << (6 - filled))))
    return "".join(out)


def from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def relabel(adj: list[int], perm: list[int]) -> list[int]:
    """Vertex v of ``adj`` becomes vertex perm[v] of the result."""
    out = [0] * len(adj)
    for v, mask in enumerate(adj):
        for w in range(len(adj)):
            if mask >> w & 1:
                out[perm[v]] |= 1 << perm[w]
    return out


def random_tree(rng: random.Random, n: int) -> list[int]:
    """Uniform labelled tree, decoded from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return from_edges(n, edges)


def random_caterpillar(rng: random.Random, n: int) -> list[int]:
    """Spine of 3..n-2 vertices, both ends carrying a leaf, randomly labelled."""
    spine = rng.randint(3, n - 2)
    edges = [(i, i + 1) for i in range(spine - 1)]
    hosts = [0, spine - 1] + [rng.randrange(spine) for _ in range(n - spine - 2)]
    edges += [(h, spine + i) for i, h in enumerate(hosts)]
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(from_edges(n, edges), perm)


def theta(i: int, j: int, k: int) -> list[int]:
    edges, nxt = [], 2
    for length in (i, j, k):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges.append((prev, 1))
    return from_edges(nxt, edges)


def grid(rows: int, cols: int) -> list[int]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((r * cols + c, r * cols + c + 1))
            if r + 1 < rows:
                edges.append((r * cols + c, (r + 1) * cols + c))
    return from_edges(rows * cols, edges)


def gnp_half(rng: random.Random, n: int) -> list[int]:
    """G(n, 1/2), redrawn until connected so every query has a real scan."""
    while True:
        adj = from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        )
        if component(adj, (1 << n) - 1, 1) == (1 << n) - 1:
            return adj


def component(adj: list[int], mask: int, seed: int) -> int:
    reached = frontier = seed
    while frontier:
        nbrs = 0
        for v in range(len(adj)):
            if frontier >> v & 1:
                nbrs |= adj[v]
        frontier = nbrs & mask & ~reached
        reached |= frontier
    return reached


# A cotree is "L" or (kind, [children]) with kind "U" or "J".


def random_cotree(rng: random.Random, n: int, kind: str | None = None):
    """Random cotree on n leaves whose Union and Join levels alternate."""
    if n == 1:
        return "L"
    kind = kind or rng.choice("UJ")
    parts = rng.randint(2, min(n, 4))
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    other = "J" if kind == "U" else "U"
    return (kind, [random_cotree(rng, s, other) for s in sizes])


def canonical_cotree(t) -> tuple[str, object]:
    """Printed canonical form (children sorted by their printed form) and
    the tree with its children in that order."""
    if t == "L":
        return "L", "L"
    kind, children = t
    done = sorted((canonical_cotree(c) for c in children), key=lambda p: p[0])
    return kind + "(" + ",".join(s for s, _ in done) + ")", (kind, [c for _, c in done])


def cotree_graph(t) -> list[int]:
    """Adjacency of a cotree; leaves are numbered left to right."""
    leaves: list[int] = []

    def visit(node) -> int:
        if node == "L":
            leaves.append(0)
            return 1 << (len(leaves) - 1)
        kind, children = node
        spans = [visit(c) for c in children]
        whole = 0
        for s in spans:
            whole |= s
        if kind == "J":
            for s in spans:
                for v in range(len(leaves)):
                    if s >> v & 1:
                        leaves[v] |= whole & ~s
        return whole

    visit(t)
    return leaves


# ---------------------------------------------------------------------------
# tree oracle: connected subtrees counted by size with a rooted DP
# ---------------------------------------------------------------------------


def _polymul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def tree_polys(adj: list[int], root: int) -> tuple[list[int], list[int]]:
    """(global, local-at-root) coefficient lists a_1..a_n of a tree."""
    n = len(adj)
    order, parent = [root], {root: -1}
    for v in order:
        for w in range(n):
            if adj[v] >> w & 1 and w not in parent:
                parent[w] = v
                order.append(w)
    if len(order) != n:
        raise ValueError("not a tree: graph is disconnected")
    rooted: dict[int, list[int]] = {}
    for v in reversed(order):
        poly = [0, 1]
        for w in range(n):
            if adj[v] >> w & 1 and parent.get(w) == v:
                poly = _polymul(poly, [1] + rooted[w][1:])
        rooted[v] = poly
    total = [0] * (n + 1)
    for poly in rooted.values():
        for k, a in enumerate(poly):
            total[k] += a
    local = rooted[root] + [0] * (n + 1 - len(rooted[root]))
    return total[1:], local[1:]


def _mean(coeffs: list[int]) -> Fraction:
    return Fraction(sum(k * a for k, a in enumerate(coeffs, 1)), sum(coeffs))


def tree_answer(adj: list[int], kind: str, vertex: int) -> str:
    """The exact stdout the CLI must print for a query on a tree."""
    n = len(adj)
    total, local = tree_polys(adj, vertex)
    if kind == "local":
        return f"{_mean(local)}\n"
    if kind == "rel":
        p = Fraction(1, 3)
        return f"{sum(a * p**k * (1 - p) ** (n - k) for k, a in enumerate(total, 1))}\n"
    poly = json.dumps({"n": n, "coeffs": [str(a) for a in total]}, sort_keys=True)
    return f"{_mean(total)}\npoly\t{poly}\n"


# ---------------------------------------------------------------------------
# subset-scan: a fixed mix of query shapes, instances drawn from the seed
# ---------------------------------------------------------------------------

# (class, order, kind). The shape is the same for every seed, so the cost
# mix is too; the seed draws trees, caterpillars and cotrees, picks pool
# members, relabels vertices and picks query vertices. Orders sit on both
# sides of the subset scan's neighbour-table switch (n <= 20 uses it); one
# query of order 21 costs about as much as twenty of order 16, so there is
# only one.
FULL_MIX = [
    ("tree", 16, "poly"), ("tree", 17, "local"), ("tree", 18, "rel"),
    ("tree", 19, "poly"), ("tree", 20, "local"), ("tree", 21, "poly"),
    ("tree", 16, "local"), ("tree", 18, "poly"), ("tree", 17, "rel"),
    ("tree", 19, "rel"),
    ("caterpillar", 16, "rel"), ("caterpillar", 16, "poly"),
    ("caterpillar", 17, "poly"), ("caterpillar", 17, "rel"),
    ("caterpillar", 18, "local"), ("caterpillar", 19, "local"),
    ("theta", 18, "poly"), ("theta", 18, "rel"), ("theta", 19, "local"),
    ("grid", 16, "poly"), ("grid", 16, "local"), ("grid", 18, "local"),
    ("grid", 20, "rel"),
    ("dense", 16, "poly"), ("dense", 16, "local"), ("dense", 17, "local"),
    ("dense", 17, "rel"), ("dense", 18, "rel"), ("dense", 18, "poly"),
    ("dense", 19, "poly"), ("dense", 19, "local"), ("dense", 20, "local"),
    ("cograph", 16, "local"), ("cograph", 16, "local"), ("cograph", 17, "local"),
    ("cograph", 18, "local"), ("cograph", 18, "local"), ("cograph", 19, "local"),
    ("cograph", 17, "local"), ("cograph", 20, "local"),
]
TINY_MIX = [
    ("tree", 8, "poly"), ("caterpillar", 9, "local"), ("theta", 9, "rel"),
    ("grid", 8, "local"), ("dense", 9, "poly"), ("dense", 10, "local"),
    ("cograph", 9, "local"), ("cograph", 10, "local"),
]
GRID_SHAPES = {8: (2, 4), 9: (3, 3), 10: (2, 5), 16: (4, 4), 18: (3, 6), 20: (4, 5)}


def pool(cls: str, n: int) -> list[list[int]]:
    """Fixed graphs whose answers are recorded in expected.json."""
    if cls == "grid":
        return [grid(*GRID_SHAPES[n])]
    if cls == "theta":
        # n - 2 internal vertices, split evenly and as (n - 6, 2, 2)
        t = n - 2
        a = t // 3
        b = (t - a) // 2
        return [theta(*s) for s in sorted({(t - a - b, b, a), (t - 4, 2, 2)})]
    if cls == "dense":
        return [gnp_half(random.Random(f"dense-{n}-{k}"), n) for k in range(2)]
    raise ValueError(cls)


def pool_key(base: list[int], kind: str, vertex: int) -> str:
    g6 = encode_graph6(base)
    return f"{g6}|local|{vertex}" if kind == "local" else f"{g6}|{kind}"


def query_argv(g6: str, kind: str, vertex: int) -> list[str]:
    if kind == "local":
        return ["mean", g6, "--local", str(vertex)]
    if kind == "rel":
        return ["reliability", g6, "--p", "1/3"]
    return ["mean", g6, "--poly"]


def subset_scan(scale: str, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for cls, n, kind in TINY_MIX if scale == "tiny" else FULL_MIX:
        perm = list(range(n))
        rng.shuffle(perm)
        vertex = rng.randrange(n)
        label = f"{cls}-{n}-{kind}"
        if cls in ("tree", "caterpillar"):
            adj = random_tree(rng, n) if cls == "tree" else random_caterpillar(rng, n)
            op = Op(query_argv(encode_graph6(adj), kind, vertex), "tree",
                    tree_answer(adj, kind, vertex))
        elif cls == "cograph":
            form, tree = canonical_cotree(random_cotree(rng, n))
            adj = relabel(cotree_graph(tree), perm)
            op = Op(query_argv(encode_graph6(adj), kind, perm[vertex]), "cograph",
                    ["mean", form, "--local", str(vertex)])
        else:
            base = rng.choice(pool(cls, n))
            op = Op(query_argv(encode_graph6(relabel(base, perm)), kind, perm[vertex]),
                    "recorded", pool_key(base, kind, vertex))
        op.items, op.label = 1, label
        ops.append(op)
    return ops


def build(workload: str, scale: str, seed: int) -> list[Op]:
    if workload == "cograph-extremal":
        return cograph_extremal(scale)
    if workload == "graph-classes":
        return graph_classes(scale)
    if workload == "subset-scan":
        return subset_scan(scale, seed)
    raise ValueError(f"unknown workload {workload!r}")
