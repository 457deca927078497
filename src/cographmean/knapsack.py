"""Extremal global means of cotree families by an exact fractional knapsack.

For a cograph write V = Φ(1) and D = Φ'(1), so that its global mean is D/V.
The union/join recursion makes both nearly additive over a cotree's
children.  A Union adds its children's values.  A Join of parts of orders
n_i, with n = Σ n_i, adds those of (1+x)^n − 1 − Σ ((1+x)^{n_i} − 1),
which depend only on the orders.

Fix λ = a/b and score a tree by w = b·D − a·V, negated when minimising.
Let H(m) be the score of (1+x)^m − 1, from the V and D of
:func:`~cographmean.poly._power_pair`.  A leaf scores H(1), a Union Σw_i
and a Join Σw_i + H(n) − ΣH(n_i).  So the best Union-rooted tree of order n is
an unbounded knapsack over part sizes below n, whose items of size s are
the leaf (s = 1) or Join-rooted trees of order s.  The best Join-rooted tree
is H(n) plus the same knapsack over the leaf and the Union-rooted trees,
each less H(s).  Dinkelbach's method (Dinkelbach 1967, "On nonlinear
fractional programming", Management Science 13(7)) moves λ to the mean of
the best tree until the best score is 0; λ is then the extremal mean, and
the trees scoring 0 are the winners.  The method may start at any λ, so a
search can start at a claimed extreme, which one table then certifies.

Every table cell keeps its top ``keep`` entries (w, V, D), one per tree, so
ties count with multiplicity.  The winners are rebuilt from the tables'
best values, and the runner-up mean comes from a second Dinkelbach run
over every tree that is not a winner, with one more entry kept than there
are winners, started at the mean of the second entry of the first run's
last table.  All arithmetic is on integers; means are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .cotree import JOIN, LEAF, LEAF_TREE, UNION, Cotree, Family, _root_kinds, compose
from .poly import _pair_mean, _power_pair

Entry = tuple[int, int, int]  # (w, V, D) of one tree
_EMPTY: Entry = (0, 0, 0)  # the sum over no children
_OTHER = {JOIN: UNION, UNION: JOIN}


def _add(x: Entry, y: Entry) -> Entry:
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2])


def _sub(x: Entry, y: Entry) -> Entry:
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2])


def _top(entries: list[Entry], keep: int) -> list[Entry]:
    return sorted(entries, reverse=True)[:keep]


def _copies(pool: list[Entry], j: int, keep: int) -> list[Entry]:
    """Top ``keep`` sums of j trees drawn, with repetition, from ``pool``.

    A multiset that takes r trees other than the best has at least r
    others scoring as much or more (put the best back for one to r of
    them), so only r < keep can be needed at the top.
    """
    best = pool[0]
    sums = []
    for r in range(min(j, keep - 1) + 1):
        base = (best[0] * (j - r), best[1] * (j - r), best[2] * (j - r))
        for rest in combinations_with_replacement(pool[1:], r):
            total = base
            for e in rest:
                total = _add(total, e)
            sums.append(total)
    return _top(sums, keep)


class _Tables:
    """The top ``keep`` entries of every cotree of order at most n at λ.

    ``roots[kind][s]`` ranks the trees of order s with that root: the leaf
    at order 1, Join or Union from order 2.
    ``items[kind][c]`` ranks the children of order c that a ``kind`` node
    can take: the leaf or the other root kind, less H(c) under a Join.
    ``knap[kind][c][m]`` ranks the multisets of such children with orders
    at most c and total m.
    """

    def __init__(self, n: int, lam: Fraction, sign: int, keep: int):
        a, b = lam.numerator, lam.denominator
        self.n = n
        self.h = [_EMPTY]
        for m in range(1, n + 1):
            value, deriv = _power_pair(0, m)
            self.h.append((sign * (b * deriv - a * (value - 1)), value - 1, deriv))
        self.roots = {LEAF: {1: [self.h[1]]}, JOIN: {}, UNION: {}}
        self.items: dict[str, dict[int, list[Entry]]] = {JOIN: {}, UNION: {}}
        self.knap = {kind: [[[_EMPTY]] + [[] for _ in range(n)]] for kind in (JOIN, UNION)}
        self._trees: dict[tuple[str, int], list[Cotree]] = {(LEAF, 1): [LEAF_TREE]}
        for c in range(1, n):
            for kind in (JOIN, UNION):
                pool = self.roots[LEAF if c == 1 else _OTHER[kind]][c]
                if kind == JOIN:
                    pool = [_sub(e, self.h[c]) for e in pool]
                self.items[kind][c] = pool
                copies = [_copies(pool, j, keep) for j in range(n // c + 1)]
                prev = self.knap[kind][c - 1]
                self.knap[kind].append([
                    _top([
                        _add(x, y)
                        for j in range(m // c + 1)
                        for x in copies[j]
                        for y in prev[m - j * c]
                    ], keep)
                    for m in range(n + 1)
                ])
            best_parts = self.knap[JOIN][c][c + 1]
            self.roots[JOIN][c + 1] = [_add(e, self.h[c + 1]) for e in best_parts]
            self.roots[UNION][c + 1] = self.knap[UNION][c][c + 1]

    def family(self, family: Family, keep: int) -> list[Entry]:
        """The top ``keep`` entries of the order-n trees in the family."""
        roots = [self.roots[kind][self.n] for kind in _root_kinds(self.n, family)]
        return _top([e for entries in roots for e in entries], keep)

    def best_family_trees(self, family: Family) -> list[Cotree]:
        """Every order-n tree of the family with the family's best score."""
        top = self.family(family, 1)
        return [
            tree
            for kind in _root_kinds(self.n, family)
            if self.roots[kind][self.n][0][0] == top[0][0]
            for tree in self.best_trees(kind, self.n)
        ]

    def best_trees(self, kind: str, s: int) -> list[Cotree]:
        """Every tree of order s with root ``kind`` and the best score."""
        if (kind, s) not in self._trees:
            target = self.roots[kind][s][0][0] - (self.h[s][0] if kind == JOIN else 0)
            out = []
            for sizes in self._best_sizes(kind, s - 1, s, target):
                out.extend(compose(kind, [
                    ([LEAF_TREE] if c == 1 else self.best_trees(_OTHER[kind], c), j)
                    for c, j in sizes
                ]))
            self._trees[kind, s] = out
        return self._trees[kind, s]

    def _best_sizes(self, kind: str, c: int, m: int, target: int):
        """Each multiset of child orders (at most c, total m) that reaches
        ``target`` with the best child of every order, as (order, count)
        pairs."""
        if m == 0:
            yield ()
            return
        if c == 0:
            return
        item = self.items[kind][c][0][0]
        for j in range(m // c + 1):
            rest = self.knap[kind][c - 1][m - j * c]
            if rest and rest[0][0] + j * item == target:
                for more in self._best_sizes(kind, c - 1, m - j * c, target - j * item):
                    yield ((c, j),) + more if j else more


def _dinkelbach(
    family: Family,
    n: int,
    sign: int,
    keep: int,
    lam: Fraction,
    excluded: Fraction | None,
) -> tuple[_Tables, list[Entry]]:
    """The tables at the extremal λ over trees whose mean is not
    ``excluded``, and the top ``keep`` entries there, less the excluded
    ones; the first attains λ (no entries if no tree is left).

    Any start works.  After the first table λ is some tree's mean, and each
    table's top tree has a strictly better mean than λ until the top score
    is exactly 0, which happens at the extreme and nowhere else.
    """
    while True:
        tables = _Tables(n, lam, sign, keep)
        entries = [e for e in tables.family(family, keep) if _pair_mean(e[1:]) != excluded]
        if not entries or entries[0][0] == 0:
            return tables, entries
        lam = _pair_mean(entries[0][1:])


def _extremal_cotrees(
    family: Family, n: int, sign: int, lam: Fraction
) -> tuple[tuple[tuple[str, Fraction], ...], Fraction | None]:
    """The winners, as (printed form, mean) sorted by form, and the gap to
    the best strictly worse mean (None if every tree is a winner), of the
    global mean over the order-n cotrees of a cotree family: the maximum
    at ``sign`` 1, the minimum at -1.

    The search starts at λ = ``lam``.  Started at the extremal mean, it
    needs one table to certify it, and that table's second entry, the
    best-scoring other tree, seeds the runner-up search.  The arguments are
    taken as given: :func:`~cographmean.verify.extremal_search` checks and
    converts them.
    """
    tables, top = _dinkelbach(family, n, sign, 2, lam, None)
    if not top:
        return (), None
    best = _pair_mean(top[0][1:])
    forms = sorted(tree.form for tree in tables.best_family_trees(family))
    winners = tuple((form, best) for form in forms)
    if len(top) == 1:  # a family of one tree has no runner-up
        return winners, None
    _, runner_up = _dinkelbach(
        family, n, sign, len(forms) + 1, _pair_mean(top[1][1:]), best
    )
    return winners, None if not runner_up else abs(best - _pair_mean(runner_up[0][1:]))
