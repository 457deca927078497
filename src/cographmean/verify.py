"""Extremal searches and mechanical checks of the library's headline facts.

Every check here is exact: means are compared as rationals, never within a
tolerance.  Searches cover whole isomorphism-class families: connected
graphs by scoring the one-vertex extensions of the classes one order down,
without deduplicating them (:func:`graph_search`), each as its base's
connected-set count plus a subset sum for the new vertex; cotree families
by the exact fractional knapsack of :mod:`cographmean.knapsack`, which
never lists them and is imported only when a cotree family is searched.
:func:`extremal_search`, which scores each enumerated class once, is kept
as their test oracle.  All report all tied winners and treat every
uniqueness claim as an assertion to test, not an assumption.  Inequality
sweeps use closed forms so they reach orders far past enumeration range;
below each inequality's stated threshold the sweep records what actually
happens instead of failing.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb

from .cotree import (
    LEAF,
    UNION,
    Cotree,
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
from .enumeration import (
    MAX_CATERPILLAR_ORDER,
    _COTREE_FILTER,
    Family,
    GeneratorSpec,
    _extend,
    _max_degree_extensions,
    canonical_graph,
    enumerate_caterpillars,
    enumerate_cotrees,
    generate,
)
from .errors import NoWitnessFound, OrderOutOfRange, RangeError
from .graph import (
    MAX_ORDER,
    Graph,
    Value,
    connected_components,
    emit_graph6,
    from_edge_list,
    iter_bits,
)
from .poly import (
    MeanFamily,
    SubgraphPolynomial,
    _count_connected,
    _phi_local_leaves,
    closed_form_means,
    closed_form_psi,
    global_mean,
    mstar_mean,
    phi_bruteforce,
    phi_cotree,
    phi_local_bruteforce,
)


class Objective(str, Enum):
    GLOBAL_MEAN_MAX = "max"
    GLOBAL_MEAN_MIN = "min"


class ExtremalReport(Value):
    """Outcome of an exact argmax/argmin over one enumerated family."""

    __slots__ = _fields = ("family", "order", "objective", "winners", "runner_up_gap")

    def __init__(
        self, family: str, order: int, objective: str,
        winners: tuple[tuple[str, Fraction], ...], runner_up_gap: Fraction | None,
    ):
        self._store(family, order, objective, winners, runner_up_gap)

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


class TheoremVerdict(Value):
    """PASS/FAIL outcome of one mechanical check, with a reproducible trail."""

    __slots__ = _fields = ("theorem", "parameter_range", "status", "witness", "log")

    def __init__(
        self, theorem: str, parameter_range: str, status: str,
        witness: dict | None = None, log: tuple[str, ...] = (),
    ):
        self._store(theorem, parameter_range, status, witness, log)

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json_dict(self) -> dict:
        return self._asdict() | {"log": list(self.log)}


class LocalCounterexample(Value):
    """A graph with a vertex whose local mean falls below the global mean."""

    __slots__ = _fields = (
        "graph", "vertex", "global_mean", "local_mean", "base_tree", "base_tree_mean"
    )

    def __init__(
        self, graph: Graph, vertex: int, global_mean: Fraction, local_mean: Fraction,
        base_tree: Graph, base_tree_mean: Fraction,
    ):
        self._store(graph, vertex, global_mean, local_mean, base_tree, base_tree_mean)

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


def max_mean_connected_cograph(n: int) -> Cotree:
    """The connected cograph of maximum global mean at each order.

    The first six orders have bespoke winners; from order 7 on it is the
    star (verified by :func:`verify_star_max` up to its cap, order 64).
    """
    if n < 1:
        raise RangeError(f"order must be >= 1, got {n}")
    bespoke = {
        1: complete(1),
        2: complete(2),
        3: complete(3),
        4: complete_bipartite(2, 2),
        5: complete_bipartite(2, 3),
        6: complete_bipartite(2, 4),
    }
    return bespoke[n] if n <= 6 else star(n)


# ---------------------------------------------------------------------------
# extremal search
# ---------------------------------------------------------------------------


def extremal_search(spec: GeneratorSpec, objective: Objective) -> ExtremalReport:
    """Exact argmax/argmin of the global mean over one enumerated family.

    All tied winners are reported, sorted by canonical form;
    ``runner_up_gap`` is the distance to the best strictly worse value
    (None when the family has a single distinct value).  Only the winners
    are put in canonical form.
    """
    objective = Objective(objective)
    maximize = objective is Objective.GLOBAL_MEAN_MAX

    def better(a: Fraction, b: Fraction) -> bool:
        return a > b if maximize else a < b

    best: Fraction | None = None
    second: Fraction | None = None
    tied: list[Cotree | Graph] = []
    for item in generate(spec):
        if isinstance(item, Cotree):
            mean = global_mean(phi_cotree(item))
        else:
            mean = global_mean(phi_bruteforce(item))
        if best is None:
            best, tied = mean, [item]
        elif mean == best:
            tied.append(item)
        elif better(mean, best):
            second = best
            best, tied = mean, [item]
        elif second is None or better(mean, second):
            second = mean
    winners = sorted(
        (format_cotree(item) if isinstance(item, Cotree)
         else emit_graph6(canonical_graph(item)), best)
        for item in tied
    )
    gap = None if second is None else abs(best - second)
    return ExtremalReport(
        family=Family(spec.family).value,
        order=spec.order,
        objective=objective.value,
        winners=tuple(winners),
        runner_up_gap=gap,
    )


def knapsack_search(spec: GeneratorSpec, objective: Objective) -> ExtremalReport:
    """The report :func:`extremal_search` gives on a cotree family, computed
    by :func:`~cographmean.knapsack.extremal_cotrees` without enumerating
    the family."""
    from .knapsack import extremal_cotrees

    objective = Objective(objective)
    family = Family(spec.family)
    winners, gap = extremal_cotrees(
        spec.order, _COTREE_FILTER[family], objective is Objective.GLOBAL_MEAN_MAX
    )
    return ExtremalReport(
        family=family.value,
        order=spec.order,
        objective=objective.value,
        winners=winners,
        runner_up_gap=gap,
    )


def _value_and_derivative(counts: list[int]) -> tuple[int, int]:
    """Phi(1) and Phi'(1) from connected-set counts indexed by size."""
    return sum(counts), sum(k * a for k, a in enumerate(counts))


def _subset_term(base: tuple[int, ...], subset: int) -> tuple[int, int]:
    """The term of M = ``subset`` in :func:`_new_vertex_score`'s sum,
    (-1)^c(M) x^k (1+x)^q, and its derivative at x = 1: +-2^q and
    +-(2k + q) 2^(q-1), with c(M) the number of components of base[M],
    k = |M| + 1 and q the number of base vertices outside N[M]."""
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
    value, deriv = 1 << q, (2 * k + q << q) >> 1
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
            base_v, base_d = _value_and_derivative(_count_connected(base_graph, 0))
            parts = connected_components(base_graph)
            terms: dict[int, tuple[int, int]] = {}
        if all(nbrs & part for part in parts):
            v, d = _new_vertex_score(base, nbrs, terms)
            yield base, nbrs, base_v + v, base_d + d


def graph_search(spec: GeneratorSpec, objective: Objective) -> ExtremalReport:
    """The report :func:`extremal_search` gives on connected graphs, scored
    on the one-vertex extensions of the classes one order down.

    Every connected class is some connected extension, and each extension
    is some class, so the best and runner-up means over
    :func:`_scored_extensions` are those over the classes, and no extension
    is deduplicated.  Means D/V are compared as D V' against D' V.  A class
    may arise more than once, so the tied extensions are deduplicated by
    printed form.
    """
    objective = Objective(objective)
    sign = 1 if objective is Objective.GLOBAL_MEAN_MAX else -1
    best: tuple[int, int] | None = None
    second: tuple[int, int] | None = None
    tied: list[tuple[tuple[int, ...], int]] = []
    for base, nbrs, v, d in _scored_extensions(spec.order):
        if best is None:
            best, tied = (d, v), [(base, nbrs)]
            continue
        ahead = sign * (d * best[1] - best[0] * v)
        if ahead == 0:
            tied.append((base, nbrs))
        elif ahead > 0:
            second = best
            best, tied = (d, v), [(base, nbrs)]
        elif second is None or sign * (d * second[1] - second[0] * v) > 0:
            second = (d, v)
    mean = Fraction(*best)
    forms = {
        emit_graph6(canonical_graph(Graph._make(spec.order, _extend(base, nbrs))))
        for base, nbrs in tied
    }
    return ExtremalReport(
        family=Family(spec.family).value,
        order=spec.order,
        objective=objective.value,
        winners=tuple((form, mean) for form in sorted(forms)),
        runner_up_gap=None if second is None else abs(mean - Fraction(*second)),
    )


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
    ``expected_mean(n)`` unless that is None.  On cotree families the
    report comes from :func:`knapsack_search`, and the winner's mean is
    also recomputed from its tree by :func:`~cographmean.poly.phi_cotree`.
    ``range_label`` names the sweep when n_max is outside lo..hi."""

    __slots__ = _fields = (
        "theorem", "family", "objective", "lo", "hi", "range_label",
        "expected_form", "expected_mean", "log_line",
    )

    def __init__(
        self, theorem: str, family: Family, objective: Objective, lo: int, hi: int,
        range_label: str, expected_form: Callable[[int], str],
        expected_mean: Callable[[int], Fraction | None] = lambda n: None,
        log_line: Callable[[int, ExtremalReport], str] = _form_and_mean,
    ):
        self._store(
            theorem, family, objective, lo, hi, range_label,
            expected_form, expected_mean, log_line,
        )


def run_claim(claim: ExtremalClaim, n_max: int) -> TheoremVerdict:
    """Check ``claim`` at orders lo..n_max; FAIL at the first order it misses."""
    if not claim.lo <= n_max <= claim.hi:
        raise OrderOutOfRange(
            f"{claim.range_label} supports {claim.lo}..{claim.hi}, got {n_max}"
        )
    search = knapsack_search if claim.family in _COTREE_FILTER else graph_search
    log, witness = [], None
    for n in range(claim.lo, n_max + 1):
        report = search(GeneratorSpec(claim.family, n), claim.objective)
        expected_mean = claim.expected_mean(n)
        if not (
            report.is_unique
            and report.winner_form == claim.expected_form(n)
            and (expected_mean is None or report.winner_mean == expected_mean)
            and (claim.family not in _COTREE_FILTER or _recheck_by_phi_cotree(report))
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


_TABLE1_MEANS = {
    1: Fraction(1),
    2: Fraction(4, 3),
    3: Fraction(12, 7),
    4: Fraction(28, 13),
    5: Fraction(69, 26),
    6: Fraction(54, 17),
}

_TABLE2_MEANS = {
    3: Fraction(12, 7),
    4: Fraction(28, 13),
    5: Fraction(69, 26),
    6: Fraction(67, 21),
    7: Fraction(83, 22),
    8: Fraction(22, 5),
    9: Fraction(996, 197),
}

# Verified by exhaustive subset scan and hand-checked coefficients
# (9, 12, 22, 36, 49, 48, 32, 9, 1).  The grid is not the order-9 maximum:
# theta_graph(2, 2, 3) has mean 357/71, and K4 with five edges subdivided
# (graph6 H??ZLRO), the order-9 row of TABLE2, has 996/197.
_GRID_3X3_MEAN = Fraction(1081, 218)


def _table2_expected_graph(n: int) -> Graph:
    if n == 3:
        return cotree_to_graph(complete(3))
    if n == 4:
        return cotree_to_graph(complete_bipartite(2, 2))
    if n == 9:  # K4 with five of its six edges subdivided once
        return from_edge_list(9, [
            (0, 1), (0, 4), (4, 2), (0, 5), (5, 3), (1, 6),
            (6, 2), (1, 7), (7, 3), (2, 8), (8, 3),
        ])
    internals = {5: (1, 1, 1), 6: (2, 1, 1), 7: (2, 2, 1), 8: (2, 2, 2)}[n]
    return theta_graph(*internals)


TABLE1 = ExtremalClaim(
    theorem="max-mean-table-connected-cographs",
    family=Family.CONNECTED_COGRAPHS,
    objective=Objective.GLOBAL_MEAN_MAX,
    lo=1, hi=6, range_label="connected-cograph table",
    expected_form=lambda n: format_cotree(max_mean_connected_cograph(n)),
    expected_mean=lambda n: _TABLE1_MEANS[n],
)

# The cotree claims below reach the largest graph order, 64.  At that order,
# on a 2-core host, `verify star-max --nmax 64` took 3.7-4.7 s, `skillet-min`
# 4.1-5.8 s and `disconnected-max` 4.8-5.0 s, each under 27 MB peak RSS; the
# phi_cotree recheck takes under 0.03 s of each, the knapsack nearly all the rest.
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

# The two connected-graph claims stop at order 9 (`enumerate connected-graphs`
# stops at 8: printing order 9 would put 261,080 classes in canonical form).
# On a 2-core host, in fresh processes, `verify table2 --nmax 9` took 6.7-7.1 s
# and `verify path-conjecture --nmax 9` 5.3-6.4 s, each at 20 MB peak RSS:
# building the 12,346 classes of order 8 (about 1.7 s), then scoring their
# 470,725 connected extensions.  Order 10 would score the extensions of
# 274,668 classes of order 9, which take about 42 s and 121 MB to build alone.
MAX_GRAPH_SEARCH_ORDER = 9

TABLE2 = ExtremalClaim(
    theorem="max-mean-table-connected-graphs",
    family=Family.CONNECTED_GRAPHS,
    objective=Objective.GLOBAL_MEAN_MAX,
    lo=3, hi=MAX_GRAPH_SEARCH_ORDER, range_label="connected-graph table",
    expected_form=lambda n: emit_graph6(canonical_graph(_table2_expected_graph(n))),
    expected_mean=lambda n: _TABLE2_MEANS[n],
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
    """The path is the unique minimum-mean connected graph up to n_max."""
    return run_claim(PATH_MIN, n_max)


# ---------------------------------------------------------------------------
# sweeps: one record per checked statement, one runner for all of them
# ---------------------------------------------------------------------------


class Sweep(Value):
    """A statement checked over a parameter range.  ``rows(n_max)`` yields a
    dict for each failure and a string for each log line; ``range_label`` is
    a format string that takes ``n_max``."""

    __slots__ = _fields = ("theorem", "range_label", "rows")

    def __init__(
        self, theorem: str, range_label: str, rows: Callable[[int], Iterator[dict | str]]
    ):
        self._store(theorem, range_label, rows)


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


# A sweep asks for a point again right after it: the next s, or the star at
# each s.  Two entries serve those repeats; holding every point (3,038 at
# n_max = 64) would also spare the repeats across sweeps, for 0.36 MB more
# peak RSS in ``verify inequalities``.
@lru_cache(maxsize=2)
def _bipartite_mean(s: int, n: int) -> Fraction:
    value, deriv = closed_form_psi(s, n)
    return Fraction(n + deriv, n + value)


@lru_cache(maxsize=2)
def _bipartite_mstar(s: int, n: int) -> Fraction:
    return closed_form_means(MeanFamily.COMPLETE_BIPARTITE_MSTAR, n, s)


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
        lambda n, s: _bipartite_mstar(s, n) > _bipartite_mstar(s + 1, n),
        ((n, s) for n in range(4, n_max + 1) for s in range(1, n // 2)),
    )
    yield from _misses(
        lambda n, s: _bipartite_mstar(1, n) >= _bipartite_mstar(s, n),
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
        lambda n: _star_mstar(n) == _bipartite_mstar(1, n),
        orders,
        clause="psi-consistency",
    )
    yield f"values: n=1: {_star_mstar(1)}, n=2: {_star_mstar(2)}"


def _star_beats_two_rows(n_max: int) -> Iterator[dict | str]:
    # Global means of complete bipartite graphs: the star beats the
    # two-per-part split from order 7 on.
    for n in range(4, 7):
        star_mean, two_mean = _bipartite_mean(1, n), _bipartite_mean(2, n)
        yield (
            f"n={n} below threshold: star "
            f"{'beats' if star_mean > two_mean else 'loses to'} "
            f"two-per-part split ({star_mean} vs {two_mean})"
        )
    yield from _misses(
        lambda n: _bipartite_mean(1, n) > _bipartite_mean(2, n),
        ((n,) for n in range(7, n_max + 1)),
    )


def _two_rest_rows(n_max: int) -> Iterator[dict | str]:
    # M* of K_{2,n-3} (order n-1) never exceeds the complete graph's mean at
    # order n, once n >= 6.
    yield from _below_threshold(
        lambda n: _bipartite_mstar(2, n - 1)
        <= closed_form_means(MeanFamily.COMPLETE, n),
        6,
    )
    for n in range(6, n_max + 1):
        lhs = _bipartite_mstar(2, n - 1)
        rhs = closed_form_means(MeanFamily.COMPLETE, n)
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
            lambda n, s: _bipartite_mean(s, n) > _bipartite_mean(s + 1, n),
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
    # Complete bipartite M* means sit above half the order.
    Sweep(
        "bipartite-mstar-above-half-order",
        "n=2..{n_max}, s=1..n-1",
        lambda n_max: _misses(
            lambda n, s: _bipartite_mstar(s, n) > Fraction(n, 2),
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


# The sweeps' rationals grow with n, so their cost grows faster than
# n_max^2: ``cographmean verify inequalities --nmax 512`` took 3.5-3.9 s and
# 17 MB peak RSS in a fresh process on a 2-core host, 640 took 6.5-7.5 s.
MAX_INEQUALITY_ORDER = 512


def verify_inequality_sweeps(n_max: int = 64) -> list[TheoremVerdict]:
    """Exact-rational sweeps of every closed-form inequality up to n_max.

    Each inequality must hold from its stated threshold onward; rows below
    the threshold are evaluated and logged, never failed.
    """
    if not 9 <= n_max <= MAX_INEQUALITY_ORDER:
        raise RangeError(
            f"inequality sweeps support n_max in 9..{MAX_INEQUALITY_ORDER}, got {n_max}"
        )
    return [run_sweep(sweep, n_max) for sweep in INEQUALITIES]


# ---------------------------------------------------------------------------
# exhaustive structural checks over cograph families
# ---------------------------------------------------------------------------


def _star_max_mstar_rows(n_max: int) -> Iterator[dict | str]:
    # The star has the strictly largest M* mean among all cographs per order.
    for n in range(1, n_max + 1):
        bound = mstar_mean(phi_cotree(star(n)))
        ties = []
        for t in enumerate_cotrees(n, "all"):
            value = mstar_mean(phi_cotree(t))
            if value > bound:
                yield {"n": n, "form": format_cotree(t), "mstar": str(value)}
            elif value == bound:
                ties.append(format_cotree(t))
        if ties != [format_cotree(star(n))]:
            yield {"n": n, "equality_set": ties}


def _local_floor_rows(n_max: int) -> Iterator[dict | str]:
    # Every vertex of a connected cograph has local mean at least (n+1)/2,
    # with equality achieved (universal vertices sit exactly on the floor).
    # A local mean D/V is compared as 2D against (n+1)V.
    equality_hits = 0
    for n in range(1, n_max + 1):
        for t in enumerate_cotrees(n, "connected"):
            for leaf, p in enumerate(_phi_local_leaves(t)):
                twice, floor = 2 * p.derivative_at_one(), (n + 1) * p.value_at_one()
                if twice < floor:
                    yield {"n": n, "form": format_cotree(t), "vertex": leaf,
                           "local_mean": str(global_mean(p))}
                elif twice == floor and n >= 2:
                    equality_hits += 1
    if equality_hits == 0:
        yield {"clause": "no equality witness observed"}
    yield f"equality witnesses (n>=2): {equality_hits}"


def _local_dominates_rows(n_max: int) -> Iterator[dict | str]:
    # Local means dominate the global mean on connected cographs; only the
    # single vertex achieves equality.  D_v/V_v against D/V is D_v V vs D V_v.
    for n in range(1, n_max + 1):
        for t in enumerate_cotrees(n, "connected"):
            g = phi_cotree(t)
            value, deriv = g.value_at_one(), g.derivative_at_one()
            for leaf, p in enumerate(_phi_local_leaves(t)):
                local, whole = p.derivative_at_one() * value, deriv * p.value_at_one()
                if local < whole or (local == whole and n >= 2):
                    yield {"n": n, "form": format_cotree(t), "vertex": leaf,
                           "local_mean": str(global_mean(p)),
                           "global_mean": str(global_mean(g))}


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
        for t in enumerate_cotrees(n, "connected"):
            if _cut_leaf(t) is not None:
                continue
            checked += 1
            total = phi_cotree(t).value_at_one()
            if not any(2 * p.value_at_one() > total for p in _phi_local_leaves(t)):
                yield {"n": n, "form": format_cotree(t)}
    yield f"2-connected cographs checked: {checked}"


def _connected_mean_growth_rows(n_max: int) -> Iterator[dict | str]:
    # Means of connected cographs strictly exceed those of all smaller
    # cographs, connected or not.
    def means(n: int, connectivity: str) -> Iterator[Fraction]:
        return (global_mean(phi_cotree(t)) for t in enumerate_cotrees(n, connectivity))

    min_connected = {n: min(means(n, "connected")) for n in range(1, n_max + 1)}
    max_any = {n: max(means(n, "all")) for n in range(1, n_max + 1)}
    for n in range(2, n_max + 1):
        for m in range(1, n):
            if not min_connected[n] > max_any[m]:
                yield {"n": n, "m": m}


def _component_cap_rows(n_max: int) -> Iterator[dict | str]:
    # A cograph whose components all have order at most s has mean at most
    # (s+1)/2, with equality exactly when s = 1.
    for n in range(1, n_max + 1):
        for t in enumerate_cotrees(n, "all"):
            s = max(c.leaf_count for c in t.children) if t.kind == UNION else n
            bound = Fraction(s + 1, 2)
            value = global_mean(phi_cotree(t))
            if value > bound or (value == bound) != (s == 1):
                yield {"n": n, "form": format_cotree(t), "mean": str(value), "s": s}


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


def verify_structural_theorems(n_max: int = 8) -> list[TheoremVerdict]:
    """Exhaustive per-vertex and per-graph checks over all cographs <= n_max."""
    # ``cographmean verify local-mean --nmax 9`` takes 0.30 s (median of 10
    # fresh processes, quartiles 0.27-0.34 s) and 17.7 MB peak RSS on a 2-core host.
    if not 2 <= n_max <= 9:
        raise RangeError(f"structural checks support n_max in 2..9, got {n_max}")
    return [run_sweep(sweep, n_max) for sweep in STRUCTURAL]


# ---------------------------------------------------------------------------
# local/global counterexample construction
# ---------------------------------------------------------------------------


def _phi_tree(tree: Graph) -> SubgraphPolynomial:
    """Polynomial of a tree by a DP over subtree sizes, rooted at vertex 0.

    The subtrees whose top vertex is v are v together with, for each child
    c, nothing or a subtree topped at c, so f_v = x * prod(1 + f_c), and the
    polynomial is the sum of every f_v.  Each product has the degree of the
    subtree it covers, which keeps the whole DP at O(n^2).
    """
    n = tree.order
    parent = [0] * n
    order, seen = [0], 1
    for v in order:
        for w in iter_bits(tree.adj[v] & ~seen):
            seen |= 1 << w
            parent[w] = v
            order.append(w)
    # topped[v][k]: subtrees of k vertices topped at v, over the children folded in
    topped = [[0, 1] for _ in range(n)]
    for v in reversed(order[1:]):
        acc, child = topped[parent[v]], topped[v]
        grown = acc + [0] * (len(child) - 1)
        for i, a in enumerate(acc):
            for j in range(1, len(child)):
                grown[i + j] += a * child[j]
        topped[parent[v]] = grown
    coeffs = [0] * n
    for f in topped:
        for k in range(1, len(f)):
            coeffs[k - 1] += f[k]
    return SubgraphPolynomial._make(n, tuple(coeffs))


def find_local_counterexample(n: int = 14) -> LocalCounterexample:
    """A graph of order n with a vertex whose local mean undercuts the global.

    Scans caterpillars one order down for one whose mean exceeds (n+1)/2,
    then joins a universal vertex to it.  The universal vertex's local
    polynomial is pinned coefficientwise (it must be x(1+x)^(n-1)), which
    certifies the local mean of exactly (n+1)/2; the tree's higher mean then
    drags the global mean strictly above it.  The caterpillars are scored by
    the tree DP :func:`_phi_tree`; the joined graph is counted by
    :func:`~cographmean.poly.phi_bruteforce`.
    """
    if n < 14:
        raise RangeError(f"the construction needs order >= 14, got {n}")
    if n - 1 > MAX_CATERPILLAR_ORDER:
        raise OrderOutOfRange(
            f"caterpillar search supports base order <= {MAX_CATERPILLAR_ORDER}"
        )
    m = n - 1
    threshold = Fraction(m + 2, 2)
    for tree in enumerate_caterpillars(m):
        tree_mean = global_mean(_phi_tree(tree))
        if tree_mean <= threshold:
            continue
        adj = tuple(a | 1 << m for a in tree.adj) + ((1 << m) - 1,)
        g = Graph(n, adj)
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
    raise NoWitnessFound(
        f"no caterpillar of order {m} has mean above {threshold}"
    )


def verify_local_counterexample(n: int = 14) -> TheoremVerdict:
    """Wrap the counterexample search as a verdict; absence of a witness is
    reported as FAIL with the searched range rather than raised."""
    try:
        found = find_local_counterexample(n)
    except NoWitnessFound as exc:
        return TheoremVerdict(
            theorem="local-mean-below-global-witness",
            parameter_range=f"n={n}",
            status="FAIL",
            witness={"searched": f"caterpillars of order {n - 1}", "error": str(exc)},
        )
    return TheoremVerdict(
        theorem="local-mean-below-global-witness",
        parameter_range=f"n={n}",
        status="PASS",
        witness=found.to_json_dict(),
        log=(
            f"tree mean {found.base_tree_mean} > global {found.global_mean} "
            f"> local {found.local_mean} at the universal vertex",
        ),
    )
