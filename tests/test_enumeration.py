"""Generators: counts against independent oracles, determinism."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_labeled_graphs,
    class_codes,
    has_induced_p4,
    oracle_graph_classes,
    oracle_min_code,
    relabel,
)
from test_connected_sets import graphs

import cographmean

from cographmean import (
    Family,
    canonical_graph,
    enumerate_caterpillars,
    enumerate_connected_graphs,
    enumerate_cotrees,
    format_cotree,
    from_edge_list,
    generate,
    graph_to_cotree,
    is_connected,
)
from cographmean.cotree import JOIN, LEAF, ROOT_KINDS, UNION, canonicalize, cotree_to_graph
from cographmean.enumeration import (
    MAX_COTREE_LEAVES,
    _cells,
    _cotree_pool,
    _graph_classes,
    _min_code,
)
from cographmean.errors import OrderOutOfRange, UnknownFamily
from cographmean.graph import Graph, _triangle_adj, emit_graph6, parse_graph6
from cographmean.knapsack import extremal_cotrees
from cographmean.verify import (
    PATH_MIN,
    TABLE2,
    Objective,
    extremal_search,
)


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
    counts = {
        Family.COGRAPHS: COTREE_COUNTS[n],
        Family.CONNECTED_COGRAPHS: CONNECTED_COTREE_COUNTS[n],
        Family.DISCONNECTED_COGRAPHS: COTREE_COUNTS[n] - CONNECTED_COTREE_COUNTS[n],
    }
    assert {family: sum(1 for _ in generate(family, n)) for family in counts} == counts
    assert sum(1 for _ in enumerate_cotrees(n)) == COTREE_COUNTS[n]


@pytest.mark.parametrize(
    "family", [Family.CONNECTED_GRAPHS, Family.CATERPILLARS, "connected", "all", "graphs"]
)
def test_cotree_generators_take_only_cotree_families(family):
    with pytest.raises(UnknownFamily):
        next(enumerate_cotrees(3, family))
    with pytest.raises(UnknownFamily):
        extremal_cotrees(3, family, True)


@pytest.mark.parametrize("n", range(2, 7))
def test_cotree_counts_against_p4_free_filter(n):
    # the independent oracle: count isomorphism classes of P4-free graphs
    classes = [Graph(n, adj) for adj in _graph_classes(n)]
    cographs = [g for g in classes if not has_induced_p4(g)]
    assert sum(1 for _ in enumerate_cotrees(n)) == len(cographs)
    assert sum(1 for _ in enumerate_cotrees(n, Family.CONNECTED_COGRAPHS)) == sum(
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
    assert sum(1 for _ in generate(Family.CONNECTED_GRAPHS, n)) == GRAPH_COUNTS[n]


# OEIS A000088: graphs on n unlabelled vertices
GRAPH_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


@pytest.mark.parametrize("n", range(1, 8))
def test_graph_class_counts(n):
    assert len(_graph_classes(n)) == GRAPH_CLASS_COUNTS[n]


def test_graph_classes_compute_no_printed_form(monkeypatch):
    real = cographmean.enumeration._min_code

    def restricted_only(n, adj, cell_of=None):
        assert cell_of is not None, "the class build asked for a printed form"
        return real(n, adj, cell_of)

    monkeypatch.setattr(cographmean.enumeration, "_min_code", restricted_only)
    assert len(_graph_classes.__wrapped__(7)) == GRAPH_CLASS_COUNTS[7]


def test_graph_class_count_order_8():
    assert len(_graph_classes(8)) == 12346


# sha256 of repr(class_codes(8)), measured on the build that kept every
# extension.  A wrong representative of some class changes it; the count
# alone would not.
GRAPH_CLASSES_8_SHA256 = "c111dd87b36a72456faffe8e55b63e390c86a4e12b4d82eaa802b100e9950823"


@pytest.mark.slow
def test_graph_classes_order_8_are_pinned():
    digest = hashlib.sha256(repr(class_codes(8)).encode()).hexdigest()
    assert digest == GRAPH_CLASSES_8_SHA256


@pytest.mark.parametrize("n", range(1, 8))
def test_graph_classes_equal_the_full_code_scan(n):
    assert class_codes(n) == oracle_graph_classes(n)


def test_cells_are_an_equitable_partition(rng):
    for _ in range(200):
        n = rng.randint(1, 9)
        g = cographmean.from_edge_list(
            n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.4]
        )
        cell_of = _cells(n, g.adj)
        cells = list(dict.fromkeys(cell_of))
        assert len(cell_of) == n and sum(c.bit_count() for c in cells) == n
        assert all(cell_of.count(c) == c.bit_count() for c in cells)
        for c in cells:
            for d in cells:
                assert len({(g.adj[v] & d).bit_count() for v in range(n) if c >> v & 1}) == 1


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_last_cell_is_label_free_and_of_maximum_degree(data):
    # _graph_classes keeps an extension only when the new vertex is in the
    # last cell, and drops it early when that vertex cannot have maximum
    # degree; both steps rely on this.
    g = data.draw(graphs(st.integers(1, 9)))
    perm = data.draw(st.permutations(range(g.order)))
    last = _cells(g.order, g.adj)[-1]
    image = sum(1 << perm[v] for v in range(g.order) if last >> v & 1)
    h = relabel(g, perm)
    assert _cells(h.order, h.adj)[-1] == image
    top = max(g.degree(v) for v in range(g.order))
    assert all(g.degree(v) == top for v in range(g.order) if last >> v & 1)


def test_cell_restricted_code_matches_the_permutation_oracle(rng):
    for _ in range(80):
        n = rng.randint(1, 7)
        g = cographmean.from_edge_list(
            n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5]
        )
        cell_of = _cells(n, g.adj)
        assert _min_code(n, g.adj, cell_of) == oracle_min_code(g, cell_of)


def _certificate(g: Graph) -> int:
    return _min_code(g.order, g.adj, _cells(g.order, g.adj))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_cell_restricted_code_is_a_relabelling_invariant(data):
    g = data.draw(graphs(st.integers(1, 9)))
    perm = data.draw(st.permutations(range(g.order)))
    assert _certificate(relabel(g, perm)) == _certificate(g)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_cell_restricted_code_separates_exactly_the_classes(data):
    g = data.draw(graphs(st.integers(2, 9)))
    h = relabel(g, data.draw(st.permutations(range(g.order))))
    if data.draw(st.booleans()):
        pair = st.lists(st.integers(0, g.order - 1), min_size=2, max_size=2, unique=True)
        u, v = data.draw(pair)
        adj = list(h.adj)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        h = Graph(h.order, tuple(adj))
    same_class = _min_code(g.order, g.adj) == _min_code(h.order, h.adj)
    assert (_certificate(g) == _certificate(h)) == same_class


def test_graph_classes_against_permutation_oracle():
    # independently canonicalize all labeled graphs on four vertices
    seen = set()
    for g in all_labeled_graphs(4):
        seen.add(oracle_min_code(g))
    assert sorted(seen) == list(class_codes(4))


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


def test_winner_forms_are_the_canonical_form_of_a_relabelled_copy(rng):
    # The class representatives a search scores are not canonical; only its
    # winners are put in canonical form, and any labelling must print alike.
    for claim in (TABLE2, PATH_MIN):
        for n in range(claim.lo, 8):
            report = extremal_search(claim.family, n, claim.objective)
            for form, _ in report.winners:
                perm = list(range(n))
                rng.shuffle(perm)
                relabelled = relabel(parse_graph6(form), perm)
                assert emit_graph6(canonical_graph(relabelled)) == form


def test_relabelled_representatives_reach_the_representative(rng):
    for n in range(2, 8):
        codes = class_codes(n)
        for code in rng.sample(codes, min(25, len(codes))):
            g = Graph(n, _triangle_adj(n, code))
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_graph(relabel(g, perm)) == g


def test_canonical_graph_never_builds_a_class_table():
    script = (
        "from cographmean import from_edge_list\n"
        "from cographmean.enumeration import _graph_classes, canonical_graph\n"
        "g = from_edge_list(8, [(v, v + 1) for v in range(7)])\n"
        "print(canonical_graph(g).edge_count(), _graph_classes.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cographmean.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["7", "0"]


def test_canonical_graph6_body_packs_the_minimal_code(rng):
    for n in range(2, 11):
        for _ in range(5):
            p = rng.random()
            g = from_edge_list(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
            nbits = n * (n - 1) // 2
            bits = format(_min_code(n, g.adj), f"0{nbits}b") + "0" * (-nbits % 6)
            body = "".join(chr(63 + int(bits[i:i + 6], 2)) for i in range(0, len(bits), 6))
            assert emit_graph6(canonical_graph(g)) == chr(63 + n) + body


def test_code_round_trip():
    for n in range(1, 7):
        for code in class_codes(n):
            assert _min_code(n, _triangle_adj(n, code)) == code


def test_enumerated_graphs_are_connected():
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            assert is_connected(g)


def test_graph_enumeration_range():
    with pytest.raises(OrderOutOfRange):
        list(enumerate_connected_graphs(9))


CATERPILLAR_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 10}


@pytest.mark.parametrize("n", range(2, 8))
def test_caterpillar_counts(n):
    assert sum(1 for _ in generate(Family.CATERPILLARS, n)) == CATERPILLAR_COUNTS[n]


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
    for adj in _graph_classes(n):
        if _is_caterpillar_tree(Graph(n, adj)):
            expected.add(_min_code(n, adj))
    got = {
        _min_code(n, canonical_graph(g).adj) for g in enumerate_caterpillars(n)
    }
    assert got == expected


def test_caterpillars_are_pairwise_nonisomorphic():
    for n in range(2, 10):
        forms = [canonical_graph(g) for g in enumerate_caterpillars(n)]
        assert len({g.adj for g in forms}) == len(forms)


def test_generator_spec_validation():
    # Each generator checks the order itself, and names its own range; so
    # does the search, which enumerates nothing.
    for family in Family:
        with pytest.raises(OrderOutOfRange, match="supports .*, got 0"):
            next(generate(family, 0))
    for family in [*ROOT_KINDS, Family.CONNECTED_GRAPHS]:
        with pytest.raises(OrderOutOfRange, match=r"supports 1\.\..*, got 0"):
            extremal_search(family, 0, Objective.GLOBAL_MEAN_MAX)


def test_streams_are_deterministic():
    a = [format_cotree(t) for t in enumerate_cotrees(6)]
    b = [format_cotree(t) for t in enumerate_cotrees(6)]
    assert a == b
    x = [g.adj for g in enumerate_connected_graphs(5)]
    y = [g.adj for g in enumerate_connected_graphs(5)]
    assert x == y
