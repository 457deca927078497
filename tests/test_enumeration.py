"""Generators: counts against independent oracles, determinism, sharding."""

import pytest

from conftest import all_labeled_graphs, has_induced_p4, oracle_min_code

from cographmean import (
    Family,
    GeneratorSpec,
    canonical_graph,
    enumerate_caterpillars,
    enumerate_connected_graphs,
    enumerate_cotrees,
    format_cotree,
    generate,
    graph_to_cotree,
    is_connected,
)
from cographmean.cotree import JOIN, LEAF, UNION, canonicalize, cotree_to_graph
from cographmean.enumeration import (
    MAX_COTREE_LEAVES,
    _adj_to_code,
    _code_to_adj,
    _cotree_pool,
    _graph_classes,
    _min_code,
)
from cographmean.errors import OrderOutOfRange
from cographmean.graph import Graph


# OEIS A000084 (cographs) and A000669 (connected cographs)
COTREE_COUNTS = {
    1: 1, 2: 2, 3: 4, 4: 10, 5: 24, 6: 66, 7: 180,
    8: 522, 9: 1532, 10: 4624, 11: 14136, 12: 43930,
}
CONNECTED_COTREE_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 5, 5: 12, 6: 33, 7: 90,
    8: 261, 9: 766, 10: 2312, 11: 7068, 12: 21965,
}


@pytest.mark.parametrize("n", range(1, 13))
def test_cotree_counts(n):
    assert sum(1 for _ in enumerate_cotrees(n)) == COTREE_COUNTS[n]
    assert (
        sum(1 for _ in enumerate_cotrees(n, "connected"))
        == CONNECTED_COTREE_COUNTS[n]
    )
    assert (
        sum(1 for _ in enumerate_cotrees(n, "disconnected"))
        == COTREE_COUNTS[n] - CONNECTED_COTREE_COUNTS[n]
    )


@pytest.mark.parametrize("n", range(2, 7))
def test_cotree_counts_against_p4_free_filter(n):
    # the independent oracle: count isomorphism classes of P4-free graphs
    classes = [Graph(n, _code_to_adj(n, code)) for code in _graph_classes(n)]
    cographs = [g for g in classes if not has_induced_p4(g)]
    assert sum(1 for _ in enumerate_cotrees(n)) == len(cographs)
    assert sum(1 for _ in enumerate_cotrees(n, "connected")) == sum(
        1 for g in cographs if is_connected(g)
    )


def test_cotrees_order2_members():
    assert [format_cotree(t) for t in enumerate_cotrees(2)] == ["J(L,L)", "U(L,L)"]


def test_cotrees_emitted_in_lexicographic_order_without_duplicates():
    for n in range(1, 8):
        forms = [format_cotree(t) for t in enumerate_cotrees(n)]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)


def _printed(t):
    """Plain recursive printer, independent of the form stored on each node."""
    if t.kind == LEAF:
        return "L"
    letter = {UNION: "U", JOIN: "J"}[t.kind]
    return letter + "(" + ",".join(_printed(c) for c in t.children) + ")"


def test_pool_trees_are_canonical_and_carry_their_printed_form():
    for n in range(2, 10):
        for kind in (UNION, JOIN):
            for t in _cotree_pool(n, kind):
                assert canonicalize(t) == t
                assert t.form == _printed(t)
                assert _printed(canonicalize(t)) == _printed(t)


def test_cotrees_round_trip_through_graphs():
    for n in range(1, 7):
        for t in enumerate_cotrees(n):
            assert graph_to_cotree(cotree_to_graph(t)) == t


def test_cotree_enumeration_range():
    with pytest.raises(OrderOutOfRange):
        list(enumerate_cotrees(0))
    with pytest.raises(OrderOutOfRange):
        list(enumerate_cotrees(21))
    with pytest.raises(OrderOutOfRange):
        list(enumerate_cotrees(MAX_COTREE_LEAVES + 1))


GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.mark.parametrize("n", range(1, 8))
def test_connected_graph_counts(n):
    assert sum(1 for _ in enumerate_connected_graphs(n)) == GRAPH_COUNTS[n]


def test_graph_classes_against_permutation_oracle():
    # independently canonicalize all labeled graphs on four vertices
    seen = set()
    for g in all_labeled_graphs(4):
        seen.add(oracle_min_code(g))
    assert sorted(seen) == list(_graph_classes(4))


def test_min_code_matches_oracle_on_order_5_sample(rng):
    from cographmean import from_edge_list

    for _ in range(120):
        edges = [
            (u, v) for u in range(5) for v in range(u + 1, 5) if rng.random() < 0.5
        ]
        g = from_edge_list(5, edges)
        assert _min_code(5, g.adj) == oracle_min_code(g)


def test_canonical_graph_is_idempotent_and_invariant(rng):
    from cographmean import from_edge_list

    for _ in range(40):
        n = rng.randint(2, 6)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        g = from_edge_list(n, edges)
        c = canonical_graph(g)
        assert canonical_graph(c) == c
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = from_edge_list(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_graph(relabeled) == c


def test_code_round_trip():
    for n in range(2, 7):
        for code in _graph_classes(n):
            assert _adj_to_code(n, _code_to_adj(n, code)) == code


def test_enumerated_graphs_are_canonical_and_connected():
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            assert is_connected(g)
            assert canonical_graph(g) == g


def test_graph_enumeration_range():
    with pytest.raises(OrderOutOfRange):
        list(enumerate_connected_graphs(9))


CATERPILLAR_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 10}


@pytest.mark.parametrize("n", range(2, 8))
def test_caterpillar_counts(n):
    assert sum(1 for _ in enumerate_caterpillars(n)) == CATERPILLAR_COUNTS[n]


def _is_caterpillar_tree(g: Graph) -> bool:
    if not is_connected(g) or g.edge_count() != g.order - 1:
        return False
    spine = [v for v in range(g.order) if g.degree(v) >= 2]
    if not spine:
        return True  # a single edge
    sub_degrees = [
        sum(1 for u in spine if u != v and g.has_edge(u, v)) for v in spine
    ]
    # the non-leaves must induce a path: connected with degrees <= 2
    from cographmean import is_connected_subset

    mask = 0
    for v in spine:
        mask |= 1 << v
    return max(sub_degrees) <= 2 and is_connected_subset(g, mask)


@pytest.mark.parametrize("n", range(2, 8))
def test_caterpillars_match_tree_filter_oracle(n):
    # oracle: filter all isomorphism classes for caterpillar trees
    expected = set()
    for code in _graph_classes(n):
        g = Graph(n, _code_to_adj(n, code))
        if _is_caterpillar_tree(g):
            expected.add(code)
    got = {
        _min_code(n, canonical_graph(g).adj) for g in enumerate_caterpillars(n)
    }
    assert got == expected


def test_caterpillars_are_pairwise_nonisomorphic():
    for n in range(2, 10):
        forms = [canonical_graph(g) for g in enumerate_caterpillars(n)]
        assert len({g.adj for g in forms}) == len(forms)


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(Family.COGRAPHS, 3, (2, 2))
    with pytest.raises(OrderOutOfRange):
        GeneratorSpec(Family.COGRAPHS, 0)


@pytest.mark.parametrize(
    "family,order",
    [
        (Family.COGRAPHS, 5),
        (Family.CONNECTED_COGRAPHS, 6),
        (Family.CONNECTED_GRAPHS, 5),
        (Family.CATERPILLARS, 7),
    ],
)
def test_shard_union_equals_full_stream(family, order):
    full = list(generate(GeneratorSpec(family, order)))
    for count in (2, 3):
        merged = []
        for index in range(count):
            merged.extend(generate(GeneratorSpec(family, order, (index, count))))
        assert sorted(map(repr, merged)) == sorted(map(repr, full))


def test_streams_are_deterministic():
    a = [format_cotree(t) for t in enumerate_cotrees(6)]
    b = [format_cotree(t) for t in enumerate_cotrees(6)]
    assert a == b
    x = [g.adj for g in enumerate_connected_graphs(5)]
    y = [g.adj for g in enumerate_connected_graphs(5)]
    assert x == y
