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
    ProbabilityOutOfRange,
    RangeError,
    UnknownFamily,
    VertexOutOfRange,
    ZeroPolynomial,
    check_order,
)
from .graph import MAX_ORDER, Graph, Value

# Orders above this need an explicit cap.  Counting costs time in proportion
# to the connected sets that leave some vertex out of reach (see
# `_count_connected`), so neither dense nor very sparse graphs are the worst
# case.  On a 2-core host, in fresh processes, `cographmean mean --poly` at
# order 24 took 0.1 s on the complement of the path and on the cycle,
# 0.4-0.6 s on the 4x6 grid and on a random cubic graph, and 1.9-2.1 s on
# G(24, 0.3) (seeded), the worst case seen; `--local 0` took at most 1.2 s,
# and every run stayed under 16 MB peak RSS.
DEFAULT_BRUTE_FORCE_CAP = 24


class SubgraphPolynomial(Value):
    """Coefficients a_1..a_n of a connected-induced-subgraph polynomial.

    The recursions and counters below build theirs with the unchecked ``_make``.
    """

    __slots__ = _fields = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[int, ...]):
        coeffs = tuple(coeffs)
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
        if not isinstance(data, dict):
            raise ValueError(f"polynomial JSON must be an object, got {type(data).__name__}")
        for key in cls._fields:
            if key not in data:
                raise ValueError(f"polynomial JSON has no {key!r}")
        try:
            return cls(int(data["n"]), tuple(int(a) for a in data["coeffs"]))
        except TypeError as exc:
            raise ValueError(f"polynomial JSON has the wrong shape: {exc}") from None


# ---------------------------------------------------------------------------
# cotree recursion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _binomial_row(m: int) -> tuple[int, ...]:
    """Coefficients a_1..a_m of (1+x)^m - 1: C(m, 1), ..., C(m, m)."""
    return tuple(comb(m, k) for k in range(1, m + 1))


@lru_cache(maxsize=None)
def _phi(t: Cotree) -> SubgraphPolynomial:
    """A Union adds its children's polynomials.  A Join of parts of orders
    s, with m = sum s, also adds the sets that meet two parts:
    (1+x)^m - 1 - sum ((1+x)^s - 1)."""
    if t.kind == LEAF:
        return SubgraphPolynomial._make(1, (1,))
    join = t.kind != UNION
    coeffs = list(_binomial_row(t.leaf_count)) if join else [0] * t.leaf_count
    for child in t.children:
        p = _phi(child)
        for k, a in enumerate(p.coeffs):
            coeffs[k] += a
        if join:
            for k, c in enumerate(_binomial_row(p.n)):
                coeffs[k] -= c
    return SubgraphPolynomial._make(t.leaf_count, tuple(coeffs))


def phi_cotree(t: Cotree) -> SubgraphPolynomial:
    """Polynomial of the graph a cotree realizes, via the union/join recursion."""
    check_order("cotree polynomial", t.leaf_count, 1, MAX_ORDER)
    return _phi(t)


def phi_local_cotree(t: Cotree, leaf_index: int) -> SubgraphPolynomial:
    """Polynomial of connected induced subgraphs containing a given leaf.

    For a Join with the marked leaf in a part of size s out of n, every
    subset meeting the other side is connected, contributing
    x[(1+x)^{n-1} - (1+x)^{s-1}] on top of the part's own local polynomial.
    """
    check_order("local cotree polynomial", t.leaf_count, 1, MAX_ORDER)
    if not 0 <= leaf_index < t.leaf_count:
        raise LeafOutOfRange(
            f"leaf index {leaf_index} outside 0..{t.leaf_count - 1}"
        )
    return _phi_local_leaves(t)[leaf_index]


def _add_shifted(acc: list[int], row: tuple[int, ...], sign: int) -> list[int]:
    """``acc`` plus ``sign`` times x * ``row``, both as coefficients a_1.."""
    out = acc[:]
    for k, c in enumerate(row, start=1):
        out[k] += sign * c
    return out


def _phi_local_leaves(t: Cotree) -> list[SubgraphPolynomial]:
    """Every leaf's local polynomial, in leaf order, from one top-down pass.

    Each leaf gets x plus, per Join ancestor of order m whose child of
    order s holds it, x((1+x)^(m-1) - 1) - x((1+x)^(s-1) - 1) (see
    ``phi_local_cotree``); a Union adds nothing, as other components never
    meet a connected subgraph through the leaf.
    """
    n = t.leaf_count
    out = []

    def visit(node: Cotree, acc: list[int]) -> None:
        if node.kind == LEAF:
            out.append(SubgraphPolynomial._make(n, tuple(acc)))
            return
        if node.kind == UNION:
            for child in node.children:
                visit(child, acc)
            return
        acc = _add_shifted(acc, _binomial_row(node.leaf_count - 1), 1)
        for child in node.children:
            visit(child, _add_shifted(acc, _binomial_row(child.leaf_count - 1), -1))

    visit(t, [1] + [0] * (n - 1))
    return out


# ---------------------------------------------------------------------------
# connected-set counting for arbitrary graphs
# ---------------------------------------------------------------------------


def _check_cap(g: Graph, cap: int | None) -> int:
    # Order 0 is the empty base that the order-1 connected-graph search grows.
    check_order("brute-force cap", g.order, 0, DEFAULT_BRUTE_FORCE_CAP if cap is None else cap)
    return g.order


def _count_connected(g: Graph, required: int) -> list[int]:
    """Count connected subsets by size; only those containing ``required``.

    The count is taken from the sets that are *not* connected.  Fix a root
    r: ``required``, or, for a global count, each vertex in turn as the
    smallest vertex of the set.  Every set S through r splits one way into
    C, the component of G[S] that holds r, and any subset of out(C), the
    vertices outside N[C] (and, for a global count, above r).  So

        sum_{S through r} x^|S| = sum_{C connected through r} x^|C| (1+x)^|out(C)|,

    and the left side, summed over the roots, is (1+x)^n - 1, or
    x(1+x)^(n-1) for a local count.  With h[s][m] the number of connected
    sets C of size s whose out(C) has m >= 1 vertices,

        a_k = C(n, k) (local: C(n-1, k-1)) - sum_{s, m} h[s][m] C(m, k-s).

    The sets C are listed by ESU (Wernicke 2006), each once from its root.
    A state is (size, extension, free): the extension holds the candidates
    not yet branched on, and free is out(C) of the set the state grows.
    Adding a vertex w to C moves w's neighbours in free to the extension
    and leaves out(C + w) = free minus those neighbours.  Growing C only
    shrinks out(C), so a set whose out(C) is empty is neither counted nor
    extended: in a dense graph most branches end at once.
    """
    n, adj = g.order, g.adj
    full = (1 << n) - 1
    # h[s][m]; each row is looked up once per state, as its sets share a size
    h = [[0] * (n + 1) for _ in range(n + 1)]
    roots = [required.bit_length() - 1] if required else range(n)
    for root in roots:
        below = 0 if required else (1 << root) - 1
        out = full ^ (below | adj[root] | 1 << root)
        if not out:
            continue
        h[1][out.bit_count()] += 1
        # Each entry holds the size of the sets its extension will produce.
        stack = [(2, adj[root] & ~below, out)]
        while stack:
            size, ext, free = stack.pop()
            row = h[size]
            while ext:
                w = ext & -ext
                ext ^= w
                new = adj[w.bit_length() - 1] & free
                out = free ^ new
                if out:
                    row[out.bit_count()] += 1
                    grown = ext | new
                    if grown:
                        stack.append((size + 1, grown, out))
    if required:
        counts = [0] + [comb(n - 1, k) for k in range(n)]
    else:
        counts = [0] + [comb(n, k) for k in range(1, n + 1)]
    for s, row in enumerate(h):
        for m, c in enumerate(row):
            if c:
                for j in range(1, m + 1):
                    counts[s + j] -= c * comb(m, j)
    return counts


def phi_bruteforce(g: Graph, cap: int | None = None) -> SubgraphPolynomial:
    """Polynomial by counting the sets that are not connected (see
    ``_count_connected``); exact for any graph within cap."""
    n = _check_cap(g, cap)
    counts = _count_connected(g, 0)
    return SubgraphPolynomial._make(n, tuple(counts[1:]))


def phi_local_bruteforce(g: Graph, v: int, cap: int | None = None) -> SubgraphPolynomial:
    """Local polynomial at vertex ``v``, from the sets through ``v`` that are
    not connected (see ``_count_connected``)."""
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


Pair = tuple[int, int]  # (V, D): a polynomial's value and derivative at 1


def _power_pair(k: int, q: int) -> Pair:
    """(V, D) of x^k (1+x)^q: 2^q and (2k + q) 2^(q-1)."""
    return 1 << q, (2 * k + q << q) >> 1


def _cmp_means(x: Pair, y: Pair) -> int:
    """D V' - D' V: positive, zero or negative as the mean D/V of ``x`` is
    above, equal to or below the mean D'/V' of ``y`` (V, V' > 0)."""
    return x[1] * y[0] - y[1] * x[0]


def _pair_mean(pair: Pair) -> Fraction:
    return Fraction(pair[1], pair[0])


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
    # Shifts, not three _power_pair calls: the sweeps call this per (n, s).
    value = (1 << n) - (1 << (n - s)) - (1 << s) + 1
    deriv = (n << (n - 1)) - (s << (s - 1)) - ((n - s) << (n - s - 1))
    return value, deriv


class MeanFamily(str, Enum):
    """Families with a closed-form mean, all indexed by an ambient order n."""

    STAR = "star"                                      # K_{1,n-1}, global mean
    SKILLET = "skillet"                                # n-skillet, global mean
    COMPLETE = "complete"                              # K_n, global mean
    K1_UNION_STAR = "k1-union-star"                    # K_1 u K_{1,n-2}, global mean
    STAR_MSTAR = "star-mstar"                          # K_{1,n-3}, M* mean
    K_2_N3 = "k2-n3"                                   # K_{2,n-3}, global mean
    STAR_N3 = "star-n3"                                # K_{1,n-3}, global mean

    @classmethod
    def _missing_(cls, value: object) -> None:
        raise UnknownFamily(f"unknown mean family {value!r}")


# family -> (least order n, mean at n)
_CLOSED_FORMS = {
    MeanFamily.STAR: (1, lambda n:
        Fraction(n + 1, 2) - Fraction((n - 1) ** 2, 2 * (2 ** (n - 1) + n - 1))),
    MeanFamily.SKILLET: (3, lambda n: Fraction(n, 2) + Fraction(1, 3 * 2 ** (n - 2))),
    MeanFamily.COMPLETE: (1, lambda n: Fraction(n, 2) + Fraction(n, 2 ** (n + 1) - 2)),
    MeanFamily.K1_UNION_STAR: (3, lambda n:
        Fraction((n - 1) + n * 2 ** (n - 3), (n - 1) + 2 ** (n - 2))),
    MeanFamily.STAR_MSTAR: (4, lambda n: Fraction((n - 1) * 2 ** (n - 4) - 1, 2 ** (n - 3) - 1)),
    MeanFamily.K_2_N3: (4, lambda n:
        Fraction(3 * n * 2 ** (n - 4) - 2 ** (n - 4) + n - 5, 3 * 2 ** (n - 3) + n - 4)),
    MeanFamily.STAR_N3: (4, lambda n:
        Fraction((n - 3) + (n - 1) * 2 ** (n - 4), (n - 3) + 2 ** (n - 3))),
}


def closed_form_means(family: MeanFamily | str, n: int) -> Fraction:
    """Exact mean of a named family at ambient order n.

    STAR/SKILLET/COMPLETE describe graphs of order n itself; the remaining
    families follow the indexing conventions of the disconnected-maximum
    analysis, where K_{1,n-3} and K_{2,n-3} have orders n-2 and n-1.  The
    M* mean of K_{s,n-s} is ``Fraction(deriv, value)`` of
    :func:`closed_form_psi`.
    """
    family = MeanFamily(family)
    least, mean = _CLOSED_FORMS[family]
    if n < least:
        raise RangeError(f"{family.value} mean needs n >= {least}")
    return mean(n)
