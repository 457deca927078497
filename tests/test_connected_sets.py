"""Connected-set counting (``phi_bruteforce`` and ``phi_local_bruteforce``).

The counter subtracts the sets that are not connected from all sets, and
lists only the connected sets that leave some vertex out of reach, so in a
dense graph it visits few of them.  These tests hold it against the plain
subset scan in ``conftest`` on random graphs of up to 14 vertices, against
``oracle_esu_counts``, which visits every connected set, on seeded graphs of
15-20 vertices and on edge cases, against the cotree recursion on random
cographs, and against closed forms at orders 21-24.
"""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_connected_subsets,
    oracle_esu_counts,
    relabel,
)
from test_cotree_properties import cotrees

from cographmean import (
    cotree_to_graph,
    from_edge_list,
    graph_to_cotree_with_leaves,
    path_graph,
    phi_bruteforce,
    phi_cotree,
    phi_local_bruteforce,
    phi_local_cotree,
)


@st.composite
def graphs(draw, orders=st.integers(1, 14)):
    """A random labelled graph; the edge density is drawn too, so sparse,
    tree-like and dense graphs all occur."""
    n = draw(orders)
    p = draw(st.sampled_from((0.1, 0.25, 0.5, 0.75, 0.9)))
    rng = draw(st.randoms(use_true_random=False))
    edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
    return from_edge_list(n, edges)


@settings(deadline=None, max_examples=30)
@given(graphs())
def test_counts_match_the_subset_scan(g):
    # One scan gives the global counts and every vertex's local counts.
    counts = [0] * g.order
    local = [[0] * g.order for _ in range(g.order)]
    for sub in oracle_connected_subsets(g):
        counts[len(sub) - 1] += 1
        for v in sub:
            local[v][len(sub) - 1] += 1
    assert phi_bruteforce(g).coeffs == tuple(counts)
    for v in range(g.order):
        assert phi_local_bruteforce(g, v).coeffs == tuple(local[v])


@settings(deadline=None, max_examples=40)
@given(cotrees())
def test_counts_match_the_cotree_recursion(t):
    assert phi_bruteforce(cotree_to_graph(t)) == phi_cotree(t)


# Counting at every leaf of 40 random cotrees of up to 20 leaves takes about
# 0.01 s, so this property runs as many examples as its global sibling.
@settings(deadline=None, max_examples=40)
@given(cotrees())
def test_local_counts_match_the_cotree_recursion_at_every_leaf(t):
    g = cotree_to_graph(t)
    for leaf in range(t.leaf_count):
        assert phi_local_bruteforce(g, leaf) == phi_local_cotree(t, leaf)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_local_polynomials_of_a_relabelled_cograph_come_from_its_cotree(data):
    t = data.draw(cotrees(leaves=st.integers(1, 12)))
    g = relabel(cotree_to_graph(t), data.draw(st.permutations(range(t.leaf_count))))
    tree, leaf = graph_to_cotree_with_leaves(g)
    assert tree == t
    assert relabel(g, leaf) == cotree_to_graph(tree)  # vertex v is leaf[v]
    for v in range(g.order):
        assert phi_local_cotree(tree, leaf[v]) == phi_local_bruteforce(g, v)


def _seeded_graph(n, p, seed):
    rng = random.Random(seed)
    return from_edge_list(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])


def _assert_counts_match_the_visiting_counter(g):
    assert phi_bruteforce(g).coeffs == tuple(oracle_esu_counts(g, 0)[1:])
    for v in range(g.order):
        assert phi_local_bruteforce(g, v).coeffs == tuple(oracle_esu_counts(g, 1 << v)[1:])


# The oracle visits every connected set: about n 2^(n-1) of them over the
# local counts of a dense graph, so the denser graphs are the smaller ones.
@pytest.mark.parametrize(
    "n, p",
    [(20, 0.1), (17, 0.2), (16, 0.3), (16, 0.4), (15, 0.5),
     (15, 0.6), (15, 0.7), (15, 0.8), (15, 0.9)],
)
def test_counts_match_the_visiting_counter(n, p):
    _assert_counts_match_the_visiting_counter(_seeded_graph(n, p, seed=n))


@pytest.mark.parametrize("p", [0.5, 0.7, 0.9])
def test_dense_global_counts_match_the_visiting_counter_at_order_20(p):
    g = _seeded_graph(20, p, seed=20)
    assert phi_bruteforce(g).coeffs == tuple(oracle_esu_counts(g, 0)[1:])


def _star(n, centre):
    return from_edge_list(n, [(centre, v) for v in range(n) if v != centre])


@pytest.mark.parametrize(
    "g",
    [
        from_edge_list(1, []),
        from_edge_list(2, []),
        from_edge_list(17, []),
        from_edge_list(16, [(u, v) for v in range(16) for u in range(v)]),
        _star(2, 0),
        _star(16, 0),
        _star(16, 7),
        _star(16, 15),
        # disconnected: a path and a triangle; two dense halves; an isolated
        # vertex in the middle of a dense graph
        from_edge_list(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]),
        from_edge_list(16, [(u, v) for v in range(16) for u in range(v) if u // 8 == v // 8]),
        from_edge_list(
            15, [(u, v) for v in range(15) for u in range(v) if 7 not in (u, v) and (u + v) % 3]
        ),
    ],
    ids=["K1", "edgeless-2", "edgeless-17", "K16", "K2-star", "star-16-centre-0",
         "star-16-centre-7", "star-16-centre-15", "path-and-triangle",
         "two-dense-halves", "isolated-vertex-7"],
)
def test_edge_cases_match_the_visiting_counter(g):
    _assert_counts_match_the_visiting_counter(g)


def _cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("n", range(21, 25))
def test_path_closed_form(n):
    # a connected set of a path is an interval
    g = path_graph(n)
    assert phi_bruteforce(g).coeffs == tuple(n - k + 1 for k in range(1, n + 1))
    for v in (0, n // 2, n - 1):
        expected = tuple(min(v, n - k) - max(0, v - k + 1) + 1 for k in range(1, n + 1))
        assert phi_local_bruteforce(g, v).coeffs == expected


@pytest.mark.parametrize("n", range(21, 25))
def test_complete_closed_form(n):
    # every set is connected, so the counter prunes every root at once
    g = from_edge_list(n, [(u, v) for v in range(n) for u in range(v)])
    assert phi_bruteforce(g).coeffs == tuple(comb(n, k) for k in range(1, n + 1))
    for v in (0, n // 2, n - 1):
        assert phi_local_bruteforce(g, v).coeffs == tuple(comb(n - 1, k) for k in range(n))


@pytest.mark.parametrize("n", range(21, 25))
def test_path_complement_closed_form(n):
    # A set is disconnected in the complement of a path exactly when the path
    # joins its two sides completely: an edge of the path, or a run of three.
    path = {(i, i + 1) for i in range(n - 1)}
    g = from_edge_list(n, [(u, v) for v in range(n) for u in range(v) if (u, v) not in path])
    expected = [comb(n, k) for k in range(1, n + 1)]
    expected[1] -= n - 1
    expected[2] -= n - 2
    assert phi_bruteforce(g).coeffs == tuple(expected)
    for v in range(n):
        local = [comb(n - 1, k) for k in range(n)]
        local[1] -= (v > 0) + (v < n - 1)
        local[2] -= sum(1 for i in range(n - 2) if i <= v <= i + 2)
        assert phi_local_bruteforce(g, v).coeffs == tuple(local)


@pytest.mark.parametrize("n", range(21, 25))
def test_cycle_closed_form(n):
    # a proper connected set of a cycle is an arc: n of each size, k through each vertex
    g = _cycle(n)
    assert phi_bruteforce(g).coeffs == tuple([n] * (n - 1) + [1])
    for v in (0, n - 1):
        assert phi_local_bruteforce(g, v).coeffs == tuple(range(1, n)) + (1,)

