"""Exact connected-induced-subgraph polynomials, means, and closed forms.

The polynomial of a graph G of order n has coefficient a_k equal to the
number of k-element vertex subsets inducing a connected subgraph; the
local variant at a vertex v counts only subsets containing v.  All
arithmetic is exact: coefficients are Python big ints and every mean,
density, or reliability value is a ``fractions.Fraction``.  Nothing in
this module touches floating point.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb

from .cotree import LEAF, UNION, Cotree
from .errors import (
    LeafOutOfRange,
    OrderOutOfRange,
    ProbabilityOutOfRange,
    RangeError,
    UnknownFamily,
    VertexOutOfRange,
    ZeroPolynomial,
)
from .graph import MAX_ORDER, Graph, Value

# Orders above this need an explicit cap.  Counting costs time in proportion
# to the number of connected sets, which can approach 2^n: the complement of
# the 24-vertex path has 16,777,170 of them, and `cographmean mean` on it
# took 8-11 s (global) and 3-4 s (--local 0) at 17 MB peak RSS on a 2-core
# host.  Sparse graphs are far cheaper (a 24-vertex path is instant).
DEFAULT_BRUTE_FORCE_CAP = 24


class SubgraphPolynomial(Value):
    """Coefficients a_1..a_n of a connected-induced-subgraph polynomial.

    The recursions and counters below build theirs with the unchecked ``_make``.
    """

    __slots__ = _fields = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[int, ...]):
        if n < 1:
            raise ValueError("polynomial order must be at least 1")
        if len(coeffs) != n:
            raise ValueError("coefficient count does not match order")
        if any(a < 0 for a in coeffs):
            raise ValueError("coefficients must be nonnegative")
        if coeffs[0] > n:
            raise ValueError("a_1 cannot exceed the order")
        if coeffs[-1] > 1:
            raise ValueError("a_n must be 0 or 1")
        self._store(n, coeffs)

    def coefficient(self, k: int) -> int:
        """a_k for 1 <= k <= n (0 outside that range)."""
        return self.coeffs[k - 1] if 1 <= k <= self.n else 0

    def value_at_one(self) -> int:
        return sum(self.coeffs)

    def derivative_at_one(self) -> int:
        return sum(k * a for k, a in enumerate(self.coeffs, start=1))

    def evaluate(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for a in reversed(self.coeffs):
            acc = (acc + a) * x
        return acc

    def to_json_dict(self) -> dict:
        return {"n": self.n, "coeffs": [str(a) for a in self.coeffs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SubgraphPolynomial":
        return cls(int(data["n"]), tuple(int(a) for a in data["coeffs"]))


# ---------------------------------------------------------------------------
# cotree recursion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _psi_coeffs(s: int, m: int) -> tuple[int, ...]:
    """Coefficients a_1..a_{s+m} of ((1+x)^s - 1) ((1+x)^m - 1)."""
    n = s + m
    out = [0] * (n + 1)
    for k in range(2, n + 1):
        out[k] = sum(
            comb(s, i) * comb(m, k - i) for i in range(max(1, k - m), min(s, k - 1) + 1)
        )
    return tuple(out[1:])


def _join_poly(p: SubgraphPolynomial, q: SubgraphPolynomial) -> SubgraphPolynomial:
    # join of graphs with polynomials p, q: everything within one side, plus
    # every subset using both sides (those are the complete-bipartite extras)
    n = p.n + q.n
    coeffs = list(_psi_coeffs(p.n, q.n))
    for k, a in enumerate(p.coeffs):
        coeffs[k] += a
    for k, a in enumerate(q.coeffs):
        coeffs[k] += a
    return SubgraphPolynomial._make(n, tuple(coeffs))


@lru_cache(maxsize=None)
def _phi(t: Cotree) -> SubgraphPolynomial:
    if t.kind == LEAF:
        return SubgraphPolynomial._make(1, (1,))
    parts = [_phi(c) for c in t.children]
    if t.kind == UNION:
        coeffs = [0] * t.leaf_count
        for p in parts:
            for k, a in enumerate(p.coeffs):
                coeffs[k] += a
        return SubgraphPolynomial._make(t.leaf_count, tuple(coeffs))
    acc = parts[0]
    for p in parts[1:]:
        acc = _join_poly(acc, p)
    return acc


def phi_cotree(t: Cotree) -> SubgraphPolynomial:
    """Polynomial of the graph a cotree realizes, via the union/join recursion."""
    if t.leaf_count > MAX_ORDER:
        raise OrderOutOfRange(f"cotree has {t.leaf_count} leaves, cap is {MAX_ORDER}")
    return _phi(t)


def phi_local_cotree(t: Cotree, leaf_index: int) -> SubgraphPolynomial:
    """Polynomial of connected induced subgraphs containing a given leaf.

    For a Join with the marked leaf in a part of size s out of n, every
    subset meeting the other side is connected, contributing
    x[(1+x)^{n-1} - (1+x)^{s-1}] on top of the part's own local polynomial.
    """
    if t.leaf_count > MAX_ORDER:
        raise OrderOutOfRange(f"cotree has {t.leaf_count} leaves, cap is {MAX_ORDER}")
    if not 0 <= leaf_index < t.leaf_count:
        raise LeafOutOfRange(
            f"leaf index {leaf_index} outside 0..{t.leaf_count - 1}"
        )
    return _phi_local_leaves(t)[leaf_index]


@lru_cache(maxsize=None)
def _local_row(m: int, s: int) -> tuple[int, ...]:
    """Coefficients a_1..a_m of x[(1+x)^{m-1} - (1+x)^{s-1}]; one row per s < m."""
    return tuple(comb(m - 1, k) - comb(s - 1, k) for k in range(m))


def _phi_local_leaves(t: Cotree) -> list[SubgraphPolynomial]:
    """Every leaf's local polynomial, in leaf order, from one top-down pass.

    Each leaf gets x plus one row per Join ancestor (see ``phi_local_cotree``);
    a Union only pads, as other components never meet a connected subgraph
    through the leaf.
    """
    n = t.leaf_count
    out = []

    def visit(node: Cotree, acc: list[int]) -> None:
        if node.kind == LEAF:
            out.append(SubgraphPolynomial._make(n, tuple(acc)))
            return
        m = node.leaf_count
        for child in node.children:
            visit(child, acc if node.kind == UNION else [
                a + r for a, r in zip(acc, _local_row(m, child.leaf_count))
            ] + acc[m:])

    visit(t, [1] + [0] * (n - 1))
    return out


# ---------------------------------------------------------------------------
# connected-set counting for arbitrary graphs
# ---------------------------------------------------------------------------


def _check_cap(g: Graph, cap: int | None) -> int:
    limit = DEFAULT_BRUTE_FORCE_CAP if cap is None else cap
    if g.order > limit:
        raise OrderOutOfRange(
            f"order {g.order} exceeds the brute-force cap {limit}"
        )
    return g.order


def _count_connected(g: Graph, required: int) -> list[int]:
    """Count connected subsets by size; only those containing ``required``.

    ESU enumeration (Wernicke 2006): each connected set is reached once,
    from its smallest vertex, or from ``required`` when that is set.  A
    state is (size, extension, seen): the extension holds the candidates
    not yet branched on, and seen holds the set, its neighbourhood and,
    for global counts, every vertex below the root.
    """
    n, adj = g.order, g.adj
    counts = [0] * (n + 1)
    roots = [required.bit_length() - 1] if required else range(n)
    for root in roots:
        below = 0 if required else (1 << root) - 1
        counts[1] += 1
        # Each entry holds the size of the sets its extension will produce.
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


def phi_bruteforce(g: Graph, cap: int | None = None) -> SubgraphPolynomial:
    """Polynomial by enumerating every connected set; exact for any graph within cap."""
    n = _check_cap(g, cap)
    counts = _count_connected(g, 0)
    return SubgraphPolynomial._make(n, tuple(counts[1:]))


def phi_local_bruteforce(g: Graph, v: int, cap: int | None = None) -> SubgraphPolynomial:
    """Local polynomial at vertex ``v``, enumerating the connected sets through ``v``."""
    n = _check_cap(g, cap)
    if not 0 <= v < n:
        raise VertexOutOfRange(f"vertex {v} outside 0..{n - 1}")
    counts = _count_connected(g, 1 << v)
    return SubgraphPolynomial._make(n, tuple(counts[1:]))


# ---------------------------------------------------------------------------
# means, density, reliability
# ---------------------------------------------------------------------------


def global_mean(p: SubgraphPolynomial) -> Fraction:
    """Average order of a uniformly random connected induced subgraph."""
    total = p.value_at_one()
    if total == 0:
        raise ZeroPolynomial("the zero polynomial has no mean")
    return Fraction(p.derivative_at_one(), total)


def mstar_mean(p: SubgraphPolynomial) -> Fraction:
    """Mean order over nontrivial (order >= 2) subgraphs; 0 when there are none."""
    total = sum(p.coeffs[1:])
    if total == 0:
        return Fraction(0)
    deriv = sum(k * a for k, a in enumerate(p.coeffs[1:], start=2))
    return Fraction(deriv, total)


def density(p: SubgraphPolynomial) -> Fraction:
    """Global mean divided by the order."""
    return global_mean(p) / p.n


def node_reliability(p: SubgraphPolynomial, prob: Fraction) -> Fraction:
    """Probability that independently kept vertices induce a connected graph.

    Each vertex survives with probability ``prob``; the value is
    sum_k a_k prob^k (1-prob)^(n-k), exactly.
    """
    prob = Fraction(prob)
    if not 0 < prob < 1:
        raise ProbabilityOutOfRange(f"probability must be in (0,1), got {prob}")
    q = 1 - prob
    return sum(
        a * prob**k * q ** (p.n - k) for k, a in enumerate(p.coeffs, start=1)
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def closed_form_psi(s: int, n: int) -> tuple[int, int]:
    """Value and derivative at 1 of the complete-bipartite extra polynomial.

    For parts s and n-s these are 2^n - 2^{n-s} - 2^s + 1 and
    n 2^{n-1} - s 2^{s-1} - (n-s) 2^{n-s-1}.
    """
    if not 1 <= s <= n - 1:
        raise RangeError(f"need 1 <= s <= n-1, got s={s}, n={n}")
    value = 2**n - 2 ** (n - s) - 2**s + 1
    deriv = n * 2 ** (n - 1) - s * 2 ** (s - 1) - (n - s) * 2 ** (n - s - 1)
    return value, deriv


class MeanFamily(str, Enum):
    """Families with a closed-form mean, all indexed by an ambient order n."""

    STAR = "star"                                      # K_{1,n-1}, global mean
    SKILLET = "skillet"                                # n-skillet, global mean
    COMPLETE = "complete"                              # K_n, global mean
    COMPLETE_BIPARTITE_MSTAR = "complete-bipartite-mstar"  # K_{s,n-s}, M* mean
    K1_UNION_STAR = "k1-union-star"                    # K_1 u K_{1,n-2}, global mean
    STAR_MSTAR = "star-mstar"                          # K_{1,n-3}, M* mean
    K_2_N3 = "k2-n3"                                   # K_{2,n-3}, global mean
    STAR_N3 = "star-n3"                                # K_{1,n-3}, global mean


def closed_form_means(
    family: MeanFamily | str, n: int, s: int | None = None
) -> Fraction:
    """Exact mean of a named family at ambient order n.

    STAR/SKILLET/COMPLETE describe graphs of order n itself; the remaining
    families follow the indexing conventions of the disconnected-maximum
    analysis, where K_{1,n-3} and K_{2,n-3} have orders n-2 and n-1.
    COMPLETE_BIPARTITE_MSTAR additionally needs the part size ``s``.
    """
    try:
        family = MeanFamily(family)
    except ValueError:
        raise UnknownFamily(f"unknown mean family {family!r}") from None

    if family is MeanFamily.STAR:
        if n < 1:
            raise RangeError("star mean needs n >= 1")
        return Fraction(n + 1, 2) - Fraction((n - 1) ** 2, 2 * (2 ** (n - 1) + n - 1))
    if family is MeanFamily.SKILLET:
        if n < 3:
            raise RangeError("skillet mean needs n >= 3")
        return Fraction(n, 2) + Fraction(1, 3 * 2 ** (n - 2))
    if family is MeanFamily.COMPLETE:
        if n < 1:
            raise RangeError("complete mean needs n >= 1")
        return Fraction(n, 2) + Fraction(n, 2 ** (n + 1) - 2)
    if family is MeanFamily.COMPLETE_BIPARTITE_MSTAR:
        if s is None:
            raise RangeError("complete-bipartite-mstar needs the part size s")
        value, deriv = closed_form_psi(s, n)
        return Fraction(deriv, value)
    if family is MeanFamily.K1_UNION_STAR:
        if n < 3:
            raise RangeError("k1-union-star mean needs n >= 3")
        return Fraction((n - 1) + n * 2 ** (n - 3), (n - 1) + 2 ** (n - 2))
    if family is MeanFamily.STAR_MSTAR:
        if n < 4:
            raise RangeError("star-mstar mean needs n >= 4")
        return Fraction((n - 1) * 2 ** (n - 4) - 1, 2 ** (n - 3) - 1)
    if family is MeanFamily.K_2_N3:
        if n < 4:
            raise RangeError("k2-n3 mean needs n >= 4")
        return Fraction(3 * n * 2 ** (n - 4) - 2 ** (n - 4) + n - 5, 3 * 2 ** (n - 3) + n - 4)
    if family is MeanFamily.STAR_N3:
        if n < 4:
            raise RangeError("star-n3 mean needs n >= 4")
        return Fraction((n - 3) + (n - 1) * 2 ** (n - 4), (n - 3) + 2 ** (n - 3))
    raise UnknownFamily(f"unhandled mean family {family!r}")
