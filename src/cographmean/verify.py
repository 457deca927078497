"""Extremal searches and the paper's extremal claims.

Every check here is exact: means are compared as rationals, never within a
tolerance.  :func:`extremal_search` covers whole isomorphism-class
families, each by the path that never lists them: cotree families by the
exact fractional knapsack of :mod:`cographmean.knapsack`, which starts at
a claimed mean and is imported only when a cotree family is searched;
connected graphs by scoring the one-vertex extensions of the classes one
order down, without deduplicating them, each as its base's connected-set
count plus a subset sum for the new vertex.  It reports all tied winners,
and every uniqueness claim is an assertion to test, not an assumption.
The inequality and structural sweeps and the local-mean counterexample
live in :mod:`cographmean.sweeps`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from fractions import Fraction

from .cotree import (
    ROOT_KINDS,
    UNION,
    Cotree,
    Family,
    LEAF_TREE,
    canonicalize,
    complete,
    complete_bipartite,
    cotree_to_graph,
    format_cotree,
    parse_cotree,
    skillet,
    star,
)
# Not called here: bench/selfcheck.py checks that its tracer rebinds verify.generate.
from .enumeration import _extend, _max_degree_extensions, canonical_graph, generate
from .errors import RangeError, UnknownFamily, check_order
from .graph import (
    MAX_ORDER,
    Graph,
    Value,
    connected_components,
    emit_graph6,
    from_edge_list,
)
from .poly import (
    MeanFamily,
    _cmp_means,
    _pair_mean,
    _power_pair,
    closed_form_means,
    global_mean,
    phi_bruteforce,
    phi_cotree,
)
from .verdict import TheoremVerdict


class Objective(str, Enum):
    GLOBAL_MEAN_MAX = "max"
    GLOBAL_MEAN_MIN = "min"

    @classmethod
    def _missing_(cls, value: object) -> None:
        raise RangeError(f"unknown objective {value!r}, expected 'max' or 'min'")


class ExtremalReport(Value):
    """Outcome of an exact argmax/argmin over one enumerated family."""

    __slots__ = _fields = ("family", "order", "objective", "winners", "runner_up_gap")

    @property
    def is_unique(self) -> bool:
        return len(self.winners) == 1

    @property
    def winner_form(self) -> str:
        return self.winners[0][0]

    @property
    def winner_mean(self) -> Fraction:
        return self.winners[0][1]

    def to_json_dict(self) -> dict:
        gap = self.runner_up_gap
        return self._asdict() | {
            "winners": [{"form": form, "mean": str(mean)} for form, mean in self.winners],
            "runner_up_gap": None if gap is None else str(gap),
        }


# ---------------------------------------------------------------------------
# small constructors used by the table checks
# ---------------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def theta_graph(i: int, j: int, k: int) -> Graph:
    """Two terminals linked by three internally disjoint paths.

    The arguments count internal vertices per path; all must be positive to
    keep the graph simple.
    """
    if min(i, j, k) < 1:
        raise RangeError("theta graphs need at least one internal vertex per path")
    edges = []
    nxt = 2
    for length in (i, j, k):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return from_edge_list(nxt, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """Cartesian product of two paths (a rows-by-cols grid)."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((r * cols + c, r * cols + c + 1))
            if r + 1 < rows:
                edges.append((r * cols + c, (r + 1) * cols + c))
    return from_edge_list(rows * cols, edges)


# The paper's Table 1: at orders 1-6, the connected cograph of maximum
# global mean, built when asked for, and that mean.
_TABLE1 = {
    1: (lambda: complete(1), Fraction(1)),
    2: (lambda: complete(2), Fraction(4, 3)),
    3: (lambda: complete(3), Fraction(12, 7)),
    4: (lambda: complete_bipartite(2, 2), Fraction(28, 13)),
    5: (lambda: complete_bipartite(2, 3), Fraction(69, 26)),
    6: (lambda: complete_bipartite(2, 4), Fraction(54, 17)),
}


def max_mean_connected_cograph(n: int) -> Cotree:
    """The connected cograph of maximum global mean at each order.

    The first six orders have bespoke winners (``_TABLE1``); from order 7
    on it is the star (verified by :func:`verify_star_max` up to its cap,
    order 64).
    """
    check_order("maximum-mean connected cograph", n, 1, MAX_ORDER)
    return _TABLE1[n][0]() if n in _TABLE1 else star(n)


# ---------------------------------------------------------------------------
# extremal search
# ---------------------------------------------------------------------------


def _extremes(scored: Iterable[tuple], ahead: Callable) -> tuple:
    """``(best, tied, second)`` over the ``(item, score)`` pairs of ``scored``:
    the best score, every item that attains it, in order and with
    multiplicity, and the first score to attain the best strictly worse
    value (None if there is none; best is None too if ``scored`` is empty).
    ``ahead(a, b)`` is positive, zero or negative as score a is better
    than, as good as or worse than b."""
    best = second = None
    tied = []
    for item, score in scored:
        lead = 1 if best is None else ahead(score, best)
        if lead == 0:
            tied.append(item)
        elif lead > 0:
            best, second, tied = score, best, [item]
        elif second is None or ahead(score, second) > 0:
            second = score
    return best, tied, second


def _subset_term(base: tuple[int, ...], subset: int) -> tuple[int, int]:
    """The term of M = ``subset`` in :func:`_new_vertex_score`'s sum,
    (-1)^c(M) x^k (1+x)^q, and its derivative at x = 1, with c(M) the
    number of components of base[M], k = |M| + 1 and q the number of base
    vertices outside N[M]."""
    closed = rest = subset
    parts = 0
    while rest:  # flood-fill one component of base[M] per round
        parts += 1
        grown = rest & -rest
        rest ^= grown
        while grown:
            bit = grown & -grown
            grown ^= bit
            nbrs = base[bit.bit_length() - 1]
            closed |= nbrs
            grown |= nbrs & rest
            rest &= ~nbrs
    k = subset.bit_count() + 1
    q = len(base) - closed.bit_count()
    value, deriv = _power_pair(k, q)
    return (-value, -deriv) if parts & 1 else (value, deriv)


def _new_vertex_score(
    base: tuple[int, ...], nbrs: int, terms: dict[int, tuple[int, int]],
) -> tuple[int, int]:
    """L(1) and L'(1), with L the polynomial of the connected sets through a
    vertex added to ``base`` with neighbours ``nbrs``.

    Such a set is the new vertex and a base set T in which every component
    meets ``nbrs``.  By inclusion-exclusion over M, a union of T's
    components that avoid ``nbrs`` (Bjorklund, Husfeldt, Kaski and Koivisto
    2007, "Fourier meets Moebius"):

        L(x) = sum over subsets M of V(base) - nbrs of
               (-1)^c(M) x^(|M|+1) (1+x)^(m - |N[M]|),

    with m = |V(base)|, since T - M is any set of base vertices outside
    N[M].  The sum walks the submasks of V(base) - nbrs, and ``terms``
    memoises :func:`_subset_term` for one base.
    """
    free = (1 << len(base)) - 1 & ~nbrs
    value = deriv = 0
    subset = free
    while True:
        term = terms.get(subset)
        if term is None:
            term = terms[subset] = _subset_term(base, subset)
        value += term[0]
        deriv += term[1]
        if not subset:
            return value, deriv
        subset = subset - 1 & free


def _scored_extensions(order: int) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """``(base, nbrs, V, D)`` for each connected extension of
    :func:`~cographmean.enumeration._max_degree_extensions`, with V and D
    its polynomial's value and derivative at 1.

    A connected set either avoids the new vertex, and is one of the base,
    or holds it, so Phi = Phi_base + L_new: each base is counted once, each
    extension only through its new vertex, by :func:`_new_vertex_score`.
    (The order-1 extension grows the empty graph.)
    """
    last = None
    for base, nbrs in _max_degree_extensions(order):
        if base is not last:
            last = base
            base_graph = Graph._make(order - 1, base)
            base_p = phi_bruteforce(base_graph)
            base_v, base_d = base_p.value_at_one(), base_p.derivative_at_one()
            parts = connected_components(base_graph)
            terms: dict[int, tuple[int, int]] = {}
        if all(nbrs & part for part in parts):
            v, d = _new_vertex_score(base, nbrs, terms)
            yield base, nbrs, base_v + v, base_d + d


# The connected-graph search, and so the two connected-graph claims, stop at
# order 9 (`enumerate connected-graphs` stops at 8: printing order 9 would put
# 261,080 classes in canonical form).
# On a 2-core host, in fresh processes, `verify table2 --nmax 9` took 6.7-7.1 s
# and `verify path-conjecture --nmax 9` 5.3-6.4 s, each at 20 MB peak RSS:
# building the 12,346 classes of order 8 (about 1.7 s), then scoring their
# 470,725 connected extensions.  Order 10 would score the extensions of
# 274,668 classes of order 9, which take about 42 s and 121 MB to build alone.
MAX_GRAPH_SEARCH_ORDER = 9


def extremal_search(
    family: Family, order: int, objective: Objective, start: Fraction | str | None = None
) -> ExtremalReport:
    """Exact argmax/argmin of the global mean over one family's classes of
    one order, without listing them.

    The arguments are checked and converted here, once.  A cotree family
    (orders 1..64) goes to :func:`~cographmean.knapsack._extremal_cotrees`,
    started at ``start``, a guess at the extremal mean: any guess gives the
    same report, and the right one the fewest knapsack tables.  It is taken
    exactly, as ``Fraction(start)``, so a float or a string such as
    ``"7/2"`` will do.
    Connected graphs (orders 1..``MAX_GRAPH_SEARCH_ORDER``) are scored on
    :func:`_scored_extensions`, which never deduplicates: every connected
    class is some connected extension, and each extension is some class,
    so the best and runner-up means over the extensions are those over the
    classes.  Means are compared as (V, D) pairs, and since a class may
    arise more than once, the tied extensions are deduplicated by canonical
    form; ``start`` is not used.

    All tied winners are reported, sorted by form; ``runner_up_gap`` is the
    distance to the best strictly worse mean (None if there is none).
    """
    family, objective = Family(family), Objective(objective)
    if family is Family.CATERPILLARS:
        raise UnknownFamily("no extremal search over caterpillars")
    cotrees = family in ROOT_KINDS
    cap = MAX_ORDER if cotrees else MAX_GRAPH_SEARCH_ORDER
    check_order(f"{family.value} search", order, 1, cap)
    sign = 1 if objective is Objective.GLOBAL_MEAN_MAX else -1
    if cotrees:
        from .knapsack import _extremal_cotrees

        winners, gap = _extremal_cotrees(family, order, sign, Fraction(start or 0))
    else:
        best, tied, second = _extremes(
            (((base, nbrs), (v, d)) for base, nbrs, v, d in _scored_extensions(order)),
            lambda x, y: sign * _cmp_means(x, y),
        )
        mean = _pair_mean(best)
        forms = {
            emit_graph6(canonical_graph(Graph._make(order, _extend(base, nbrs))))
            for base, nbrs in tied
        }
        winners = tuple((form, mean) for form in sorted(forms))
        gap = None if second is None else abs(mean - _pair_mean(second))
    return ExtremalReport(family.value, order, objective.value, winners, gap)


def _recheck_by_phi_cotree(report: ExtremalReport) -> bool:
    """Recompute a cotree winner's mean with ``phi_cotree``, the polynomial
    recursion, which shares nothing with the knapsack's additive V and D."""
    return global_mean(phi_cotree(parse_cotree(report.winner_form))) == report.winner_mean


# ---------------------------------------------------------------------------
# extremal claims: one record per claim, one runner for all of them
# ---------------------------------------------------------------------------


def _form_and_mean(n: int, report: ExtremalReport) -> str:
    return f"n={n}: {report.winner_form} mean {report.winner_mean}"


class ExtremalClaim(Value):
    """At every order n in ``lo..n_max``, ``objective`` over ``family`` has
    exactly one winner, printed as ``expected_form(n)``, with mean
    ``expected_mean(n)`` unless that is None.  The report comes from
    :func:`extremal_search`, started at ``expected_mean(n)``; on cotree
    families the winner's mean is also recomputed from its tree by
    :func:`~cographmean.poly.phi_cotree`.
    ``range_label`` names the sweep when n_max is outside lo..hi."""

    __slots__ = _fields = (
        "theorem", "family", "objective", "lo", "hi", "range_label",
        "expected_form", "expected_mean", "log_line",
    )
    _defaults = {"expected_mean": lambda n: None, "log_line": _form_and_mean}


def run_claim(claim: ExtremalClaim, n_max: int) -> TheoremVerdict:
    """Check ``claim`` at orders lo..n_max; FAIL at the first order it misses."""
    check_order(claim.range_label, n_max, claim.lo, claim.hi)
    cotrees = claim.family in ROOT_KINDS
    log, witness = [], None
    for n in range(claim.lo, n_max + 1):
        expected_mean = claim.expected_mean(n)
        report = extremal_search(claim.family, n, claim.objective, expected_mean)
        if not (
            report.is_unique
            and report.winner_form == claim.expected_form(n)
            and (expected_mean is None or report.winner_mean == expected_mean)
            and (not cotrees or _recheck_by_phi_cotree(report))
        ):
            witness = {"order": n, "report": report.to_json_dict()}
            break
        log.append(claim.log_line(n, report))
    return TheoremVerdict(
        theorem=claim.theorem,
        parameter_range=f"n={claim.lo}..{n_max}",
        status="PASS" if witness is None else "FAIL",
        witness=witness,
        log=tuple(log),
    )


# The paper's Table 2: at orders 3-9, the connected graph of maximum global
# mean, built when asked for, and that mean.  Up to order 5 it is Table 1's
# cograph (theta_graph(1, 1, 1) is K{2,3}).
_TABLE2 = {
    **{n: (lambda n=n: cotree_to_graph(_TABLE1[n][0]()), _TABLE1[n][1]) for n in (3, 4, 5)},
    6: (lambda: theta_graph(2, 1, 1), Fraction(67, 21)),
    7: (lambda: theta_graph(2, 2, 1), Fraction(83, 22)),
    8: (lambda: theta_graph(2, 2, 2), Fraction(22, 5)),
    # K4 with five of its six edges subdivided once
    9: (lambda: from_edge_list(9, [
        (0, 1), (0, 4), (4, 2), (0, 5), (5, 3), (1, 6),
        (6, 2), (1, 7), (7, 3), (2, 8), (8, 3),
    ]), Fraction(996, 197)),
}

# Verified by exhaustive subset scan and hand-checked coefficients
# (9, 12, 22, 36, 49, 48, 32, 9, 1).  The grid is not the order-9 maximum:
# theta_graph(2, 2, 3) has mean 357/71, and K4 with five edges subdivided
# (graph6 H??ZLRO), the order-9 row of TABLE2, has 996/197.
_GRID_3X3_MEAN = Fraction(1081, 218)


TABLE1 = ExtremalClaim(
    theorem="max-mean-table-connected-cographs",
    family=Family.CONNECTED_COGRAPHS,
    objective=Objective.GLOBAL_MEAN_MAX,
    lo=1, hi=6, range_label="connected-cograph table",
    expected_form=lambda n: format_cotree(max_mean_connected_cograph(n)),
    expected_mean=lambda n: _TABLE1[n][1],
)

# The cotree claims below reach the largest graph order, 64.  At that order,
# on a 2-core host, in three fresh processes each, `verify star-max --nmax 64`
# took 1.8-2.0 s, `skillet-min` 3.8-3.9 s and `disconnected-max` 1.8-2.6 s,
# each under 26 MB peak RSS; the phi_cotree recheck takes under 0.03 s of
# each, the knapsack nearly all the rest.  Started at the claimed mean, the
# knapsack builds two tables per order for the star, three for the skillet.
STAR_MAX = ExtremalClaim(
    theorem="star-unique-max-connected-cographs",
    family=Family.CONNECTED_COGRAPHS,
    objective=Objective.GLOBAL_MEAN_MAX,
    lo=7, hi=MAX_ORDER, range_label="star maximality sweep",
    expected_form=lambda n: format_cotree(star(n)),
    expected_mean=lambda n: closed_form_means(MeanFamily.STAR, n),
    log_line=lambda n, r: f"n={n}: star mean {r.winner_mean}, gap {r.runner_up_gap}",
)

SKILLET_MIN = ExtremalClaim(
    theorem="skillet-unique-min-connected-cographs",
    family=Family.CONNECTED_COGRAPHS,
    objective=Objective.GLOBAL_MEAN_MIN,
    lo=3, hi=MAX_ORDER, range_label="skillet minimality sweep",
    expected_form=lambda n: format_cotree(skillet(n)),
    expected_mean=lambda n: closed_form_means(MeanFamily.SKILLET, n),
    log_line=lambda n, r: f"n={n}: skillet mean {r.winner_mean}",
)

# From order 8 the best connected cograph one order down is the star, so
# the winner's mean must also match the K1 u K_{1,n-2} closed form.
DISCONNECTED_MAX = ExtremalClaim(
    theorem="disconnected-max-is-k1-plus-best-connected",
    family=Family.DISCONNECTED_COGRAPHS,
    objective=Objective.GLOBAL_MEAN_MAX,
    lo=2, hi=MAX_ORDER, range_label="disconnected maximality sweep",
    expected_form=lambda n: format_cotree(
        canonicalize(Cotree(UNION, (LEAF_TREE, max_mean_connected_cograph(n - 1))))
    ),
    expected_mean=lambda n: (
        closed_form_means(MeanFamily.K1_UNION_STAR, n) if n >= 8 else None
    ),
)

TABLE2 = ExtremalClaim(
    theorem="max-mean-table-connected-graphs",
    family=Family.CONNECTED_GRAPHS,
    objective=Objective.GLOBAL_MEAN_MAX,
    lo=3, hi=MAX_GRAPH_SEARCH_ORDER, range_label="connected-graph table",
    expected_form=lambda n: emit_graph6(canonical_graph(_TABLE2[n][0]())),
    expected_mean=lambda n: _TABLE2[n][1],
)

# Capped with TABLE2 above, at about the same measured cost.
PATH_MIN = ExtremalClaim(
    theorem="path-unique-min-connected-graphs",
    family=Family.CONNECTED_GRAPHS,
    objective=Objective.GLOBAL_MEAN_MIN,
    lo=3, hi=MAX_GRAPH_SEARCH_ORDER, range_label="path-minimum sweep",
    expected_form=lambda n: emit_graph6(canonical_graph(path_graph(n))),
    log_line=lambda n, r: f"n={n}: path mean {r.winner_mean}",
)


def verify_table1(n_max: int = 6) -> TheoremVerdict:
    """Unique maximum-mean connected cographs for orders 1..n_max, exact means."""
    return run_claim(TABLE1, n_max)


def verify_star_max(n_max: int = 12) -> TheoremVerdict:
    """The star is the unique maximum-mean connected cograph from order 7 up."""
    return run_claim(STAR_MAX, n_max)


def verify_skillet_min(n_max: int = 12) -> TheoremVerdict:
    """The skillet is the unique minimum-mean connected cograph from order 3 up."""
    return run_claim(SKILLET_MIN, n_max)


def verify_disconnected_max(n_max: int = 10) -> TheoremVerdict:
    """The max-mean disconnected cograph is an isolated vertex plus the
    best connected cograph one order down; for n >= 8 that second part is a
    star and the mean matches its closed form."""
    return run_claim(DISCONNECTED_MAX, n_max)


def verify_table2(n_max: int = 7) -> TheoremVerdict:
    """Unique maximum-mean connected graphs for orders 3..n_max, plus the
    pinned mean of the 3x3 grid.  The grid is a reference value only: it is
    not the order-9 maximum, which ``n_max=9`` checks is K4 with five edges
    subdivided, mean 996/197."""
    verdict = run_claim(TABLE2, n_max)
    if not verdict.passed:
        return verdict
    grid_mean = global_mean(phi_bruteforce(grid_graph(3, 3)))
    if grid_mean != _GRID_3X3_MEAN:
        return verdict.replace(
            status="FAIL", witness={"order": 9, "grid_mean": str(grid_mean)}
        )
    line = f"n=9: 3x3 grid mean {grid_mean} (pinned value, maximality unverified)"
    return verdict.replace(log=verdict.log + (line,))


def verify_path_min_conjecture(n_max: int = 7) -> TheoremVerdict:
    """The path is the unique minimum-mean connected graph up to n_max.

    The source paper conjectured this at every order, and Vince proved it
    ("A lower bound on the average size of a connected vertex set of a
    graph", J. Combin. Theory Ser. B 152, 2022)."""
    return run_claim(PATH_MIN, n_max)
