"""The connected-graph branch of ``extremal_search``, which scores
one-vertex extensions.

It never deduplicates the extensions it scores, so it is checked against
``oracle_extremal_search``, which scores each class once, and its pieces are
checked on their own: the extensions reach exactly the connected classes,
each extension's score is its polynomial, the subset sum through the new
vertex is the connected-set count through it, and tied winners are counted
as classes.  No claim enumerates the classes it searches.
"""

import random
from fractions import Fraction

import pytest

from cographmean import enumeration as enumeration_module
from cographmean import verify as verify_module
from cographmean.cotree import Family
from cographmean.enumeration import (
    _extend,
    _max_degree_extensions,
    canonical_graph,
    enumerate_connected_graphs,
)
from cographmean.graph import Graph, connected_components, emit_graph6
from cographmean.poly import SubgraphPolynomial, phi_bruteforce, phi_local_bruteforce
from cographmean.verify import (
    Objective,
    _new_vertex_score,
    _scored_extensions,
    extremal_search,
)

from conftest import oracle_esu_counts, oracle_extremal_search

# OEIS A001349: connected graphs on n unlabelled vertices
CONNECTED_GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def _form(order: int, adj: tuple[int, ...]) -> str:
    return emit_graph6(canonical_graph(Graph(order, adj)))


def _count_through_new(base: tuple[int, ...], nbrs: int) -> tuple[int, int]:
    """L(1) and L'(1) of the new vertex, by counting its connected sets."""
    p = phi_local_bruteforce(Graph(len(base) + 1, _extend(base, nbrs)), len(base))
    return p.value_at_one(), p.derivative_at_one()


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_extremal_search_matches_the_oracle_on_connected_graphs(n, objective):
    family = Family.CONNECTED_GRAPHS
    assert extremal_search(family, n, objective) == oracle_extremal_search(family, n, objective)


@pytest.mark.parametrize("n", range(2, 8))
def test_connected_extensions_reach_exactly_the_connected_classes(n):
    reached = {_form(n, _extend(base, nbrs)) for base, nbrs, _, _ in _scored_extensions(n)}
    classes = {emit_graph6(canonical_graph(g)) for g in enumerate_connected_graphs(n)}
    assert reached == classes
    assert len(reached) == CONNECTED_GRAPH_COUNTS[n]


@pytest.mark.parametrize("n", range(1, 7))
def test_base_plus_new_vertex_score_is_the_polynomial(n):
    scored = 0
    for base, nbrs, value, deriv in _scored_extensions(n):
        p = phi_bruteforce(Graph(n, _extend(base, nbrs)))
        assert (value, deriv) == (p.value_at_one(), p.derivative_at_one())
        scored += 1
    assert scored >= CONNECTED_GRAPH_COUNTS[n]


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_subset_sum_is_the_count_through_the_new_vertex(n):
    scored = 0
    last = None
    for base, nbrs in _max_degree_extensions(n):
        if base is not last:
            last, terms = base, {}
            parts = connected_components(Graph._make(n - 1, base))
        if all(nbrs & part for part in parts):
            assert _new_vertex_score(base, nbrs, terms) == _count_through_new(base, nbrs)
            scored += 1
    assert scored == {1: 1, 2: 1, 3: 2, 4: 6, 5: 28, 6: 166, 7: 1526, 8: 20085}[n]


def _random_base(rng: random.Random, m: int) -> tuple[int, ...]:
    adj = [0] * m
    p = rng.random()
    for v in range(m):
        for u in range(v):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)


def test_subset_sum_matches_both_counters_on_random_bases():
    # Any base and any neighbour set: the extension need not be connected,
    # nor the new vertex of maximum degree.  One memo serves each base.
    rng = random.Random(0x5B5E7)
    for _ in range(60):
        m = rng.randint(0, 12)
        base = _random_base(rng, m)
        terms: dict[int, tuple[int, int]] = {}
        for nbrs in {0, (1 << m) - 1, *(rng.getrandbits(m) for _ in range(4))}:
            score = _new_vertex_score(base, nbrs, terms)
            assert score == _count_through_new(base, nbrs)
            g = Graph(m + 1, _extend(base, nbrs))
            p = SubgraphPolynomial(m + 1, tuple(oracle_esu_counts(g, 1 << m)[1:]))
            assert score == (p.value_at_one(), p.derivative_at_one())


def _inject(monkeypatch, extensions):
    pairs = [(base, nbrs) for base, nbrs, _ in extensions]
    monkeypatch.setattr(verify_module, "_max_degree_extensions", lambda order: iter(pairs))


# Order-4 extensions of the path 0-1-2: the new vertex 3 on the middle vertex
# gives the star (mean 23/11); on either end it gives the path P4 (mean 2).
P3 = (2, 5, 2)
STAR_ON_P3 = (P3, 0b010, (2, 13, 2, 2))
P4_AT_0 = (P3, 0b001, (10, 5, 2, 1))
P4_AT_2 = (P3, 0b100, (2, 5, 10, 4))


def test_tie_between_two_extensions_of_one_class_is_unique(monkeypatch):
    _inject(monkeypatch, [STAR_ON_P3, P4_AT_0, P4_AT_2])
    report = extremal_search(Family.CONNECTED_GRAPHS, 4, Objective.GLOBAL_MEAN_MIN)
    assert report.winners == ((_form(4, P4_AT_0[2]), Fraction(2)),)
    assert report.is_unique
    assert report.runner_up_gap == Fraction(23, 11) - 2


def test_tie_between_two_classes_is_not_unique(monkeypatch):
    # Order 5: the path (mean 7/3), then the star K_{1,4} and K5 minus an
    # edge, both of mean 13/5.
    path = ((2, 5, 10, 4), 0b1000, (2, 5, 10, 20, 8))
    star = ((14, 1, 1, 1), 0b0001, (30, 1, 1, 1, 1))
    k5_minus_edge = ((14, 13, 3, 3), 0b1111, (30, 29, 19, 19, 15))
    _inject(monkeypatch, [path, star, k5_minus_edge])
    report = extremal_search(Family.CONNECTED_GRAPHS, 5, Objective.GLOBAL_MEAN_MAX)
    assert report.winners == tuple(
        sorted((_form(5, ext[2]), Fraction(13, 5)) for ext in (star, k5_minus_edge))
    )
    assert not report.is_unique
    assert report.runner_up_gap == Fraction(13, 5) - Fraction(7, 3)


def test_no_claim_enumerates_the_classes_it_searches(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumeration is only the test oracle of the searches")

    monkeypatch.setattr(enumeration_module, "generate", refuse)
    monkeypatch.setattr(verify_module, "generate", refuse)
    for check in (
        verify_module.verify_table1, verify_module.verify_star_max,
        verify_module.verify_skillet_min, verify_module.verify_disconnected_max,
        verify_module.verify_table2, verify_module.verify_path_min_conjecture,
    ):
        assert check().passed, check.__name__
