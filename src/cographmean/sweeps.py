"""Sweeps of the paper's inequalities and structural facts, and the
local-mean counterexample.

Every check here is exact.  Inequality sweeps use closed forms, so they
reach orders far past enumeration range; below each inequality's stated
threshold the sweep records what actually happens instead of failing.
Structural sweeps visit every cotree up to a small order.

The six structural sweeps, four of the ten inequality sweeps (the two
bipartite-mstar ones, bipartite-mean-star-beats-two and
bipartite-mean-balance-decreasing) and the counterexample's caterpillar
scan decide on integers.  A mean is held as a pair (V, D) of its
polynomial's value and derivative at 1, with mean D/V, and two means are
compared by :func:`~cographmean.poly._cmp_means`.  A cotree's pair, every
leaf's local pair (:func:`_leaf_pairs`) and a caterpillar's pair
(:func:`_caterpillar_pair`) are sums of the pairs of terms x^k (1+x)^q,
each from :func:`~cographmean.poly._power_pair`; a complete bipartite
graph's come from :func:`~cographmean.poly.closed_form_psi`.  The other
six inequality sweeps compare the ``Fraction`` means of
:func:`~cographmean.poly.closed_form_means`.

This module does not import :mod:`cographmean.verify`, so a process that
runs only these sweeps never compiles the extremal claims.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import comb

from .cotree import LEAF, UNION, Cotree, Family, star
from .enumeration import (
    MAX_CATERPILLAR_ORDER,
    _caterpillar_graph,
    _caterpillar_profiles,
    _extend,
    enumerate_cotrees,
)
from .errors import NoWitnessFound, check_order
from .graph import Graph, Value, emit_graph6
from .poly import (
    MeanFamily,
    Pair,
    _cmp_means,
    _pair_mean,
    _power_pair,
    closed_form_means,
    closed_form_psi,
    global_mean,
    phi_bruteforce,
    phi_local_bruteforce,
)
from .verdict import TheoremVerdict


class LocalCounterexample(Value):
    """A graph with a vertex whose local mean falls below the global mean."""

    __slots__ = _fields = (
        "graph", "vertex", "global_mean", "local_mean", "base_tree", "base_tree_mean"
    )

    def to_json_dict(self) -> dict:
        return {
            "graph6": emit_graph6(self.graph),
            "vertex": self.vertex,
            "global_mean": str(self.global_mean),
            "local_mean": str(self.local_mean),
            "base_tree_graph6": emit_graph6(self.base_tree),
            "base_tree_mean": str(self.base_tree_mean),
        }


# ---------------------------------------------------------------------------
# means as integer pairs
# ---------------------------------------------------------------------------


# A sweep asks for a graph again right after it: the next s, or the star at
# each s.  Two entries serve those repeats.
@lru_cache(maxsize=2)
def _bipartite(s: int, n: int, mstar: bool = False) -> Pair:
    """The pair of K_{s,n-s}, whose connected sets are its n vertices and
    the sets meeting both parts; with ``mstar`` only the latter."""
    value, deriv = closed_form_psi(s, n)
    return (value, deriv) if mstar else (n + value, n + deriv)


@lru_cache(maxsize=None)
def _pair(t: Cotree) -> Pair:
    """(Phi(1), Phi'(1)) of the cograph of ``t``.

    A Union adds its children's pairs.  A Join of parts of orders s, with
    m = sum s, adds the sets that meet two parts: (1+x)^m - 1 less
    (1+x)^s - 1 for each part.
    """
    if t.kind == LEAF:
        return 1, 1
    join = t.kind != UNION
    value = deriv = 0
    if join:
        value, deriv = _power_pair(0, t.leaf_count)
        value -= 1
    for child in t.children:
        v, d = _pair(child)
        value += v
        deriv += d
        if join:
            part_v, part_d = _power_pair(0, child.leaf_count)
            value -= part_v - 1
            deriv -= part_d
    return value, deriv


def _leaf_pairs(t: Cotree) -> tuple[Pair, list[Pair]]:
    """The pair of ``t``'s cograph and every leaf's local pair, in leaf order.

    A leaf's local polynomial is x plus, for each Join ancestor of order m
    whose child of order s holds the leaf, x(1+x)^(m-1) - x(1+x)^(s-1)
    (see :func:`~cographmean.poly.phi_local_cotree`).
    """
    leaves: list[Pair] = []

    def visit(node: Cotree, value: int, deriv: int) -> None:
        if node.kind == LEAF:
            leaves.append((value + 1, deriv + 1))
            return
        if node.kind == UNION:
            for child in node.children:
                visit(child, value, deriv)
            return
        join_v, join_d = _power_pair(1, node.leaf_count - 1)
        value += join_v
        deriv += join_d
        for child in node.children:
            part_v, part_d = _power_pair(1, child.leaf_count - 1)
            visit(child, value - part_v, deriv - part_d)

    visit(t, 0, 0)
    return _pair(t), leaves


def _mstar_pair(t: Cotree) -> Pair:
    """The pair of the connected sets of order at least 2, which leaves out
    the n single vertices; (1, 0), mean 0, when there are none."""
    value, deriv = _pair(t)
    n = t.leaf_count
    return (value - n, deriv - n) if value > n else (1, 0)


# ---------------------------------------------------------------------------
# sweeps: one record per checked statement, one runner for all of them
# ---------------------------------------------------------------------------


class Sweep(Value):
    """A statement checked over a parameter range.  ``rows(n_max)`` yields a
    dict for each failure and a string for each log line; ``range_label`` is
    a format string that takes ``n_max``."""

    __slots__ = _fields = ("theorem", "range_label", "rows")


def run_sweep(sweep: Sweep, n_max: int) -> TheoremVerdict:
    """PASS unless ``sweep`` yields a failure row; every failure is kept."""
    failures, log = [], []
    for row in sweep.rows(n_max):
        (log if isinstance(row, str) else failures).append(row)
    return TheoremVerdict(
        theorem=sweep.theorem,
        parameter_range=sweep.range_label.format(n_max=n_max),
        status="PASS" if not failures else "FAIL",
        witness={"failures": failures} if failures else None,
        log=tuple(log),
    )


def _misses(
    holds: Callable[..., bool], points: Iterable[tuple[int, ...]], **extra: str
) -> Iterator[dict]:
    """A failure row for each point, ``(n,)`` or ``(n, s)``, where ``holds``
    is false."""
    for point in points:
        if not holds(*point):
            yield {**dict(zip(("n", "s"), point)), **extra}


def _below_threshold(holds: Callable[[int], bool], threshold: int) -> Iterator[str]:
    """Log lines for n=4..threshold-1, where the statement is not claimed."""
    for n in range(4, threshold):
        yield f"n={n} below threshold: {'holds' if holds(n) else 'fails'}"


# ---------------------------------------------------------------------------
# closed-form inequality sweeps
# ---------------------------------------------------------------------------


def _star_mstar(n: int) -> Fraction:
    """M* mean of the star on n vertices (0 for the single vertex).

    STAR_MSTAR indexes the star K_{1,n-3}, on n-2 vertices, by the
    ambient order n; hence the shift by two.
    """
    if n == 1:
        return Fraction(0)
    return closed_form_means(MeanFamily.STAR_MSTAR, n + 2)


def _mstar_balance_rows(n_max: int) -> Iterator[dict | str]:
    # M* of complete bipartite graphs decreases as the parts balance,
    # so the star tops every order.
    yield from _misses(
        lambda n, s: _cmp_means(_bipartite(s, n, True), _bipartite(s + 1, n, True)) > 0,
        ((n, s) for n in range(4, n_max + 1) for s in range(1, n // 2)),
    )
    yield from _misses(
        lambda n, s: _cmp_means(_bipartite(s, n, True), _bipartite(1, n, True)) <= 0,
        ((n, s) for n in range(2, n_max + 1) for s in range(2, n)),
        clause="star-top",
    )


def _star_mstar_rows(n_max: int) -> Iterator[dict | str]:
    # The star's M* mean increases with order and sits in ((n+1)/2, (n+2)/2].
    yield from _misses(
        lambda n: _star_mstar(n + 1) > _star_mstar(n),
        ((n,) for n in range(1, n_max)),
        clause="increasing",
    )
    orders = [(n,) for n in range(2, n_max + 1)]
    yield from _misses(
        lambda n: Fraction(n + 1, 2) < _star_mstar(n) <= Fraction(n + 2, 2),
        orders,
        clause="bounds",
    )
    yield from _misses(
        lambda n: _star_mstar(n) == _pair_mean(_bipartite(1, n, True)),
        orders,
        clause="psi-consistency",
    )
    yield f"values: n=1: {_star_mstar(1)}, n=2: {_star_mstar(2)}"


def _star_beats_two_rows(n_max: int) -> Iterator[dict | str]:
    # Global means of complete bipartite graphs: the star beats the
    # two-per-part split from order 7 on.
    for n in range(4, 7):
        star_pair, two_pair = _bipartite(1, n), _bipartite(2, n)
        yield (
            f"n={n} below threshold: star "
            f"{'beats' if _cmp_means(star_pair, two_pair) > 0 else 'loses to'} "
            f"two-per-part split ({_pair_mean(star_pair)} vs {_pair_mean(two_pair)})"
        )
    yield from _misses(
        lambda n: _cmp_means(_bipartite(1, n), _bipartite(2, n)) > 0,
        ((n,) for n in range(7, n_max + 1)),
    )


def _two_rest_rows(n_max: int) -> Iterator[dict | str]:
    # M* of K_{2,n-3} (order n-1) never exceeds the complete graph's mean at
    # order n, once n >= 6.
    def sides(n: int) -> tuple[Fraction, Fraction]:
        return _pair_mean(_bipartite(2, n - 1, True)), closed_form_means(MeanFamily.COMPLETE, n)

    yield from _below_threshold(lambda n: sides(n)[0] <= sides(n)[1], 6)
    for n in range(6, n_max + 1):
        lhs, rhs = sides(n)
        if not lhs <= rhs:
            yield {"n": n}
        elif lhs == rhs:
            yield f"n={n}: equality ({lhs})"


def _k1_plus_star_beats(
    rival: MeanFamily, threshold: int
) -> Callable[[int], Iterator[dict | str]]:
    """Rows of "K1 u K_{1,n-2} has a larger mean than ``rival`` from
    ``threshold`` on", with the orders below logged."""

    def holds(n: int) -> bool:
        return closed_form_means(rival, n) < closed_form_means(
            MeanFamily.K1_UNION_STAR, n
        )

    def rows(n_max: int) -> Iterator[dict | str]:
        yield from _below_threshold(holds, threshold)
        yield from _misses(holds, ((n,) for n in range(threshold, n_max + 1)))

    return rows


INEQUALITIES = (
    Sweep(
        "bipartite-mstar-balance-decreasing",
        "n=4..{n_max}, s=1..floor(n/2)-1 (star-top clause n=2..{n_max})",
        _mstar_balance_rows,
    ),
    Sweep("star-mstar-increasing-and-bounded", "n=1..{n_max}", _star_mstar_rows),
    Sweep(
        "bipartite-mean-star-beats-two",
        "n=7..{n_max} (boundary 4..6 logged)",
        _star_beats_two_rows,
    ),
    # ... and for n >= 6 the mean keeps decreasing as the parts balance.
    Sweep(
        "bipartite-mean-balance-decreasing",
        "n=6..{n_max}, s=2..floor(n/2)-1",
        lambda n_max: _misses(
            lambda n, s: _cmp_means(_bipartite(s, n), _bipartite(s + 1, n)) > 0,
            ((n, s) for n in range(6, n_max + 1) for s in range(2, n // 2)),
        ),
    ),
    # The skillet's mean stays below the complete graph's.
    Sweep(
        "skillet-mean-below-complete",
        "n=3..{n_max}",
        lambda n_max: _misses(
            lambda n: closed_form_means(MeanFamily.SKILLET, n)
            < closed_form_means(MeanFamily.COMPLETE, n),
            ((n,) for n in range(3, n_max + 1)),
        ),
    ),
    # Complete bipartite M* means sit above half the order: D/V > n/2.
    Sweep(
        "bipartite-mstar-above-half-order",
        "n=2..{n_max}, s=1..n-1",
        lambda n_max: _misses(
            lambda n, s: _cmp_means(_bipartite(s, n, True), (2, n)) > 0,
            ((n, s) for n in range(2, n_max + 1) for s in range(1, n)),
        ),
    ),
    Sweep(
        "mstar-two-rest-at-most-complete",
        "n=6..{n_max} (boundary 4..5 logged)",
        _two_rest_rows,
    ),
    # An isolated vertex plus a spanning star dominates three rivals.
    *(
        Sweep(
            theorem,
            f"n={threshold}..{{n_max}} (boundary 4..{threshold - 1} logged)",
            _k1_plus_star_beats(rival, threshold),
        )
        for theorem, rival, threshold in (
            ("k1-plus-star-beats-star-mstar", MeanFamily.STAR_MSTAR, 8),
            ("k1-plus-star-beats-k2-rest-mean", MeanFamily.K_2_N3, 9),
            ("k1-plus-star-beats-small-star-mean", MeanFamily.STAR_N3, 4),
        )
    ),
)


# The sweeps' points grow with n^2 and their integers with n:
# ``cographmean verify inequalities --nmax 512`` took 1.1-1.2 s and 16 MB
# peak RSS in three fresh processes on a 2-core host.
MAX_INEQUALITY_ORDER = 512


def verify_inequality_sweeps(n_max: int = 64) -> list[TheoremVerdict]:
    """Exact sweeps of every closed-form inequality up to n_max.

    Each inequality must hold from its stated threshold onward; rows below
    the threshold are evaluated and logged, never failed.
    """
    check_order("inequality sweep", n_max, 9, MAX_INEQUALITY_ORDER)
    return [run_sweep(sweep, n_max) for sweep in INEQUALITIES]


# ---------------------------------------------------------------------------
# exhaustive structural checks over cograph families
# ---------------------------------------------------------------------------


def _star_max_mstar_rows(n_max: int) -> Iterator[dict | str]:
    # The star has the strictly largest M* mean among all cographs per order.
    for n in range(1, n_max + 1):
        bound = _mstar_pair(star(n))
        ties = []
        for t in enumerate_cotrees(n):
            pair = _mstar_pair(t)
            ahead = _cmp_means(pair, bound)
            if ahead > 0:
                yield {"n": n, "form": t.form, "mstar": str(_pair_mean(pair))}
            elif ahead == 0:
                ties.append(t.form)
        if ties != [star(n).form]:
            yield {"n": n, "equality_set": ties}


def _local_floor_rows(n_max: int) -> Iterator[dict | str]:
    # Every vertex of a connected cograph has local mean at least (n+1)/2,
    # with equality achieved (universal vertices sit exactly on the floor).
    # A local mean D/V is compared as 2D against (n+1)V.
    equality_hits = 0
    for n in range(1, n_max + 1):
        for t in enumerate_cotrees(n, Family.CONNECTED_COGRAPHS):
            for leaf, (value, deriv) in enumerate(_leaf_pairs(t)[1]):
                twice, floor = 2 * deriv, (n + 1) * value
                if twice < floor:
                    yield {"n": n, "form": t.form, "vertex": leaf,
                           "local_mean": str(Fraction(deriv, value))}
                elif twice == floor and n >= 2:
                    equality_hits += 1
    if equality_hits == 0:
        yield {"clause": "no equality witness observed"}
    yield f"equality witnesses (n>=2): {equality_hits}"


def _local_dominates_rows(n_max: int) -> Iterator[dict | str]:
    # Local means dominate the global mean on connected cographs; only the
    # single vertex achieves equality.
    for n in range(1, n_max + 1):
        for t in enumerate_cotrees(n, Family.CONNECTED_COGRAPHS):
            whole, leaves = _leaf_pairs(t)
            for leaf, local in enumerate(leaves):
                ahead = _cmp_means(local, whole)
                if ahead < 0 or (n >= 2 and ahead == 0):
                    yield {"n": n, "form": t.form, "vertex": leaf,
                           "local_mean": str(_pair_mean(local)),
                           "global_mean": str(_pair_mean(whole))}


def _cut_leaf(t: Cotree) -> int | None:
    """The leaf whose removal disconnects a connected canonical cotree, if any:
    only a root Join of a single leaf (sorted first) and a Union has one."""
    kids = t.children
    cut = len(kids) == 2 and kids[0].kind == LEAF and kids[1].kind == UNION
    return 0 if cut else None


def _biconnected_surplus_rows(n_max: int) -> Iterator[dict | str]:
    # Every 2-connected cograph has a vertex contained in more connected
    # subgraphs than its removal leaves behind.  Each connected set either
    # holds v or is one of G - v, so Phi_{G-v}(1) = Phi_G(1) - L_v(1).
    checked = 0
    for n in range(4, n_max + 1):
        for t in enumerate_cotrees(n, Family.CONNECTED_COGRAPHS):
            if _cut_leaf(t) is not None:
                continue
            checked += 1
            (total, _), leaves = _leaf_pairs(t)
            if not any(2 * value > total for value, _ in leaves):
                yield {"n": n, "form": t.form}
    yield f"2-connected cographs checked: {checked}"


def _connected_mean_growth_rows(n_max: int) -> Iterator[dict | str]:
    # Means of connected cographs strictly exceed those of all smaller
    # cographs, connected or not.
    def extreme(n: int, family: Family, pick: Callable) -> Pair:
        return pick(map(_pair, enumerate_cotrees(n, family)), key=cmp_to_key(_cmp_means))

    orders = range(1, n_max + 1)
    min_connected = {n: extreme(n, Family.CONNECTED_COGRAPHS, min) for n in orders}
    max_any = {n: extreme(n, Family.COGRAPHS, max) for n in orders}
    for n in range(2, n_max + 1):
        for m in range(1, n):
            if _cmp_means(min_connected[n], max_any[m]) <= 0:
                yield {"n": n, "m": m}


def _component_cap_rows(n_max: int) -> Iterator[dict | str]:
    # A cograph whose components all have order at most s has mean at most
    # (s+1)/2, with equality exactly when s = 1: 2D against (s+1)V.
    for n in range(1, n_max + 1):
        for t in enumerate_cotrees(n):
            s = max(c.leaf_count for c in t.children) if t.kind == UNION else n
            value, deriv = _pair(t)
            twice, bound = 2 * deriv, (s + 1) * value
            if twice > bound or (twice == bound) != (s == 1):
                yield {"n": n, "form": t.form, "mean": str(Fraction(deriv, value)), "s": s}


STRUCTURAL = (
    Sweep("star-unique-max-mstar-all-cographs", "n=1..{n_max}", _star_max_mstar_rows),
    Sweep("local-mean-at-least-half-order-plus", "n=1..{n_max}", _local_floor_rows),
    Sweep("local-mean-dominates-global", "n=1..{n_max}", _local_dominates_rows),
    Sweep(
        "biconnected-has-vertex-with-subgraph-surplus",
        "n=4..{n_max}",
        _biconnected_surplus_rows,
    ),
    Sweep(
        "connected-mean-grows-with-order",
        "2<=m<n<={n_max}",
        _connected_mean_growth_rows,
    ),
    Sweep("component-order-caps-mean", "n=1..{n_max}", _component_cap_rows),
)


# The cographs of each order number about three times those of the order
# before (43,930 at 12), and ``_pair`` keeps them all.  ``verify local-mean
# --nmax N``, five fresh processes each on a 2-core host: 0.27-0.34 s and
# 19 MB peak RSS at N = 10, 0.57-0.83 s and 25 MB at 11, 1.7-2.2 s and 44 MB at 12.
MAX_STRUCTURAL_ORDER = 12


def verify_structural_theorems(n_max: int = 8) -> list[TheoremVerdict]:
    """Exhaustive per-vertex and per-graph checks over all cographs <= n_max."""
    check_order("structural sweep", n_max, 2, MAX_STRUCTURAL_ORDER)
    return [run_sweep(sweep, n_max) for sweep in STRUCTURAL]


# ---------------------------------------------------------------------------
# local/global counterexample construction
# ---------------------------------------------------------------------------


def _caterpillar_pair(leaves: tuple[int, ...]) -> Pair:
    """The pair of the caterpillar whose spine vertices carry ``leaves``.

    A connected set is a single leaf, or a spine segment i..j with any
    subset of the S = l_i + ... + l_j leaves hanging off it.  So the
    polynomial is L x, with L the leaf count, plus x^(j-i+1) (1+x)^S for
    each segment.
    """
    value = deriv = sum(leaves)
    for i in range(len(leaves)):
        s = 0
        for j in range(i, len(leaves)):
            s += leaves[j]
            v, d = _power_pair(j - i + 1, s)
            value += v
            deriv += d
    return value, deriv


def find_local_counterexample(n: int = 14) -> LocalCounterexample:
    """A graph of order n with a vertex whose local mean undercuts the global.

    Scans caterpillars one order down, as leaf profiles scored by
    :func:`_caterpillar_pair`, for one whose mean exceeds (n+1)/2, then
    joins a universal vertex to it.  The universal vertex's local
    polynomial is pinned coefficientwise (it must be x(1+x)^(n-1)), which
    certifies the local mean of exactly (n+1)/2; the tree's higher mean then
    drags the global mean strictly above it.  The one caterpillar built as a
    graph, and the joined graph, are counted by
    :func:`~cographmean.poly.phi_bruteforce`.
    """
    check_order("local-mean counterexample", n, 14, MAX_CATERPILLAR_ORDER + 1)
    m = n - 1
    for spine, leaves in _caterpillar_profiles(m):
        value, deriv = _caterpillar_pair(leaves)
        if 2 * deriv > (m + 2) * value:
            break
    else:
        raise NoWitnessFound(
            f"no caterpillar of order {m} has mean above {Fraction(m + 2, 2)}"
        )
    tree = _caterpillar_graph(spine, leaves)
    tree_mean = global_mean(phi_bruteforce(tree))
    if tree_mean != Fraction(deriv, value):
        raise AssertionError("caterpillar mean certification failed")
    g = Graph(n, _extend(tree.adj, (1 << m) - 1))
    g_mean = global_mean(phi_bruteforce(g))
    local = phi_local_bruteforce(g, m)
    binomial_row = tuple(comb(n - 1, k - 1) for k in range(1, n + 1))
    if local.coeffs != binomial_row:
        raise AssertionError("universal-vertex local polynomial mismatch")
    local_mean = global_mean(local)
    if local_mean != Fraction(n + 1, 2):
        raise AssertionError("universal-vertex local mean mismatch")
    if not tree_mean > g_mean > local_mean:
        raise AssertionError("mean ordering certification failed")
    return LocalCounterexample(
        graph=g,
        vertex=m,
        global_mean=g_mean,
        local_mean=local_mean,
        base_tree=tree,
        base_tree_mean=tree_mean,
    )


def verify_local_counterexample(n: int = 14) -> TheoremVerdict:
    """Wrap the counterexample search as a verdict; absence of a witness is
    reported as FAIL with the searched range rather than raised."""
    try:
        found = find_local_counterexample(n)
    except NoWitnessFound as exc:
        status, log = "FAIL", ()
        witness = {"searched": f"caterpillars of order {n - 1}", "error": str(exc)}
    else:
        status, witness = "PASS", found.to_json_dict()
        log = (
            f"tree mean {found.base_tree_mean} > global {found.global_mean} "
            f"> local {found.local_mean} at the universal vertex",
        )
    return TheoremVerdict("local-mean-below-global-witness", f"n={n}", status, witness, log)
