"""Extremal searches and mechanical checks of the library's headline facts.

Every check here is exact: means are compared as rationals, never within a
tolerance.  Searches cover whole isomorphism-class families: graph families
by enumerating them, cotree families by the exact fractional knapsack of
:mod:`cographmean.knapsack`, which never lists them.  Both report all tied
winners and treat every uniqueness claim as an assertion to test, not an
assumption.  Inequality sweeps use closed forms so they reach orders far
past enumeration range; below each inequality's stated threshold the sweep
records what actually happens instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Iterator

from .cotree import (
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
    MAX_GRAPH_ENUM_ORDER,
    _COTREE_FILTER,
    Family,
    GeneratorSpec,
    canonical_graph,
    enumerate_caterpillars,
    enumerate_cotrees,
    generate,
)
from .errors import NoWitnessFound, OrderOutOfRange, RangeError
from .graph import (
    MAX_ORDER,
    Graph,
    emit_graph6,
    from_edge_list,
    induced_subgraph,
    is_connected,
)
from .knapsack import extremal_cotrees
from .poly import (
    MeanFamily,
    closed_form_means,
    closed_form_psi,
    global_mean,
    mstar_mean,
    phi_bruteforce,
    phi_cotree,
    phi_local_bruteforce,
    phi_local_cotree,
)


class Objective(str, Enum):
    GLOBAL_MEAN_MAX = "max"
    GLOBAL_MEAN_MIN = "min"


@dataclass(frozen=True)
class ExtremalReport:
    """Outcome of an exact argmax/argmin over one enumerated family."""

    family: str
    order: int
    objective: str
    winners: tuple[tuple[str, Fraction], ...]
    runner_up_gap: Fraction | None

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
        return {
            "family": self.family,
            "order": self.order,
            "objective": self.objective,
            "winners": [
                {"form": form, "mean": str(mean)} for form, mean in self.winners
            ],
            "runner_up_gap": None
            if self.runner_up_gap is None
            else str(self.runner_up_gap),
        }


@dataclass(frozen=True)
class TheoremVerdict:
    """PASS/FAIL outcome of one mechanical check, with a reproducible trail."""

    theorem: str
    parameter_range: str
    status: str
    witness: dict | None = None
    log: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "parameter_range": self.parameter_range,
            "status": self.status,
            "witness": self.witness,
            "log": list(self.log),
        }


@dataclass(frozen=True)
class LocalCounterexample:
    """A graph with a vertex whose local mean falls below the global mean."""

    graph: Graph
    vertex: int
    global_mean: Fraction
    local_mean: Fraction
    base_tree: Graph
    base_tree_mean: Fraction

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


def _item_form_and_mean(item: Cotree | Graph) -> tuple[str, Fraction]:
    if isinstance(item, Cotree):
        return format_cotree(item), global_mean(phi_cotree(item))
    return emit_graph6(canonical_graph(item)), global_mean(phi_bruteforce(item))


def extremal_search(spec: GeneratorSpec, objective: Objective) -> ExtremalReport:
    """Exact argmax/argmin of the global mean over one enumerated family.

    All tied winners are reported, sorted by canonical form;
    ``runner_up_gap`` is the distance to the best strictly worse value
    (None when the family has a single distinct value).
    """
    objective = Objective(objective)
    maximize = objective is Objective.GLOBAL_MEAN_MAX

    def better(a: Fraction, b: Fraction) -> bool:
        return a > b if maximize else a < b

    best: Fraction | None = None
    second: Fraction | None = None
    winners: list[tuple[str, Fraction]] = []
    for item in generate(spec):
        form, mean = _item_form_and_mean(item)
        if best is None:
            best, winners = mean, [(form, mean)]
        elif mean == best:
            winners.append((form, mean))
        elif better(mean, best):
            second = best
            best, winners = mean, [(form, mean)]
        elif second is None or better(mean, second):
            second = mean
    winners.sort(key=lambda pair: pair[0])
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


def _recheck_by_phi_cotree(report: ExtremalReport) -> bool:
    """Recompute a cotree winner's mean with ``phi_cotree``, the polynomial
    recursion, which shares nothing with the knapsack's additive V and D."""
    return global_mean(phi_cotree(parse_cotree(report.winner_form))) == report.winner_mean


# ---------------------------------------------------------------------------
# extremal claims: one record per claim, one runner for all of them
# ---------------------------------------------------------------------------


def _form_and_mean(n: int, report: ExtremalReport) -> str:
    return f"n={n}: {report.winner_form} mean {report.winner_mean}"


@dataclass(frozen=True)
class ExtremalClaim:
    """At every order n in ``lo..n_max``, ``objective`` over ``family`` has
    exactly one winner, printed as ``expected_form(n)``, with mean
    ``expected_mean(n)`` unless that is None.  On cotree families the
    report comes from :func:`knapsack_search`, and the winner's mean is
    also recomputed from its tree by :func:`~cographmean.poly.phi_cotree`."""

    theorem: str
    family: Family
    objective: Objective
    lo: int
    hi: int
    range_label: str  # names the sweep when n_max is outside lo..hi
    expected_form: Callable[[int], str]
    expected_mean: Callable[[int], Fraction | None] = lambda n: None
    log_line: Callable[[int, ExtremalReport], str] = _form_and_mean


def run_claim(claim: ExtremalClaim, n_max: int) -> TheoremVerdict:
    """Check ``claim`` at orders lo..n_max; FAIL at the first order it misses."""
    if not claim.lo <= n_max <= claim.hi:
        raise OrderOutOfRange(
            f"{claim.range_label} supports {claim.lo}..{claim.hi}, got {n_max}"
        )
    search = knapsack_search if claim.family in _COTREE_FILTER else extremal_search
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
}

# Verified by exhaustive subset scan and hand-checked coefficients
# (9, 12, 22, 36, 49, 48, 32, 9, 1).  The grid is known not to be the
# order-9 maximum: theta_graph(2, 2, 3) has mean 357/71, and K4 with five
# edges subdivided (graph6 H??ZLRO) has 996/197.
_GRID_3X3_MEAN = Fraction(1081, 218)


def _table2_expected_graph(n: int) -> Graph:
    if n == 3:
        return cotree_to_graph(complete(3))
    if n == 4:
        return cotree_to_graph(complete_bipartite(2, 2))
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

TABLE2 = ExtremalClaim(
    theorem="max-mean-table-connected-graphs",
    family=Family.CONNECTED_GRAPHS,
    objective=Objective.GLOBAL_MEAN_MAX,
    lo=3, hi=8, range_label="connected-graph table",
    expected_form=lambda n: emit_graph6(canonical_graph(_table2_expected_graph(n))),
    expected_mean=lambda n: _TABLE2_MEANS[n],
)

PATH_MIN = ExtremalClaim(
    theorem="path-unique-min-connected-graphs",
    family=Family.CONNECTED_GRAPHS,
    objective=Objective.GLOBAL_MEAN_MIN,
    lo=3, hi=MAX_GRAPH_ENUM_ORDER, range_label="path-minimum sweep",
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
    known not to be the order-9 maximum, since theta(2, 2, 3) has the larger
    mean 357/71."""
    verdict = run_claim(TABLE2, n_max)
    if not verdict.passed:
        return verdict
    grid_mean = global_mean(phi_bruteforce(grid_graph(3, 3)))
    if grid_mean != _GRID_3X3_MEAN:
        return replace(
            verdict, status="FAIL", witness={"order": 9, "grid_mean": str(grid_mean)}
        )
    line = f"n=9: 3x3 grid mean {grid_mean} (pinned value, maximality unverified)"
    return replace(verdict, log=verdict.log + (line,))


def verify_path_min_conjecture(n_max: int = 7) -> TheoremVerdict:
    """The path is the unique minimum-mean connected graph up to n_max."""
    return run_claim(PATH_MIN, n_max)


# ---------------------------------------------------------------------------
# sweeps: one record per checked statement, one runner for all of them
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """A statement checked over a parameter range.  ``rows(n_max)`` yields a
    dict for each failure and a string for each log line; ``range_label`` is
    a format string that takes ``n_max``."""

    theorem: str
    range_label: str
    rows: Callable[[int], Iterator[dict | str]]


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


def _bipartite_mean(s: int, n: int) -> Fraction:
    value, deriv = closed_form_psi(s, n)
    return Fraction(n + deriv, n + value)


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
# n_max^2: ``cographmean verify inequalities --nmax 512`` took 6.2 s and
# 18 MB peak RSS in a fresh process on a 2-core host, 640 took 11.4 s.
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
    equality_hits = 0
    for n in range(1, n_max + 1):
        floor = Fraction(n + 1, 2)
        for t in enumerate_cotrees(n, "connected"):
            for leaf in range(n):
                value = global_mean(phi_local_cotree(t, leaf))
                if value < floor:
                    yield {"n": n, "form": format_cotree(t), "vertex": leaf,
                           "local_mean": str(value)}
                elif value == floor and n >= 2:
                    equality_hits += 1
    if equality_hits == 0:
        yield {"clause": "no equality witness observed"}
    yield f"equality witnesses (n>=2): {equality_hits}"


def _local_dominates_rows(n_max: int) -> Iterator[dict | str]:
    # Local means dominate the global mean on connected cographs; only the
    # single vertex achieves equality.
    for n in range(1, n_max + 1):
        for t in enumerate_cotrees(n, "connected"):
            g_mean = global_mean(phi_cotree(t))
            for leaf in range(n):
                value = global_mean(phi_local_cotree(t, leaf))
                if value < g_mean or (value == g_mean and n >= 2):
                    yield {"n": n, "form": format_cotree(t), "vertex": leaf,
                           "local_mean": str(value), "global_mean": str(g_mean)}


def _biconnected_surplus_rows(n_max: int) -> Iterator[dict | str]:
    # Every 2-connected cograph has a vertex contained in more connected
    # subgraphs than its removal leaves behind.
    checked = 0
    for n in range(4, n_max + 1):
        for t in enumerate_cotrees(n, "connected"):
            g = cotree_to_graph(t)
            full = g.full_mask
            if any(
                not is_connected(induced_subgraph(g, full & ~(1 << v)))
                for v in range(n)
            ):
                continue
            checked += 1
            if not any(
                phi_local_cotree(t, v).value_at_one()
                > phi_bruteforce(induced_subgraph(g, full & ~(1 << v))).value_at_one()
                for v in range(n)
            ):
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
    if not 2 <= n_max <= 9:
        raise RangeError(f"structural checks support n_max in 2..9, got {n_max}")
    return [run_sweep(sweep, n_max) for sweep in STRUCTURAL]


# ---------------------------------------------------------------------------
# local/global counterexample construction
# ---------------------------------------------------------------------------


def find_local_counterexample(n: int = 14) -> LocalCounterexample:
    """A graph of order n with a vertex whose local mean undercuts the global.

    Scans caterpillars one order down for one whose mean exceeds (n+1)/2,
    then joins a universal vertex to it.  The universal vertex's local
    polynomial is pinned coefficientwise (it must be x(1+x)^(n-1)), which
    certifies the local mean of exactly (n+1)/2; the tree's higher mean then
    drags the global mean strictly above it.
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
        tree_mean = global_mean(phi_bruteforce(tree))
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
