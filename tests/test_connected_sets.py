"""Connected-set counting (``phi_bruteforce`` and ``phi_local_bruteforce``).

The counter enumerates connected sets by extension.  These tests hold it
against the plain subset scan in ``conftest`` on random graphs, against the
cotree recursion on random cographs, and against closed forms at orders
21-24.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_connected_subsets, oracle_phi_coeffs, relabel
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
    local = [[0] * g.order for _ in range(g.order)]
    for sub in oracle_connected_subsets(g):
        for v in sub:
            local[v][len(sub) - 1] += 1
    assert phi_bruteforce(g).coeffs == oracle_phi_coeffs(g)
    for v in range(g.order):
        assert phi_local_bruteforce(g, v).coeffs == tuple(local[v])


@settings(deadline=None, max_examples=40)
@given(cotrees())
def test_counts_match_the_cotree_recursion(t):
    assert phi_bruteforce(cotree_to_graph(t)) == phi_cotree(t)


# A local count at every leaf of a dense 20-leaf cograph costs about as much
# as ten global counts, so this property runs on fewer trees.
@settings(deadline=None, max_examples=10)
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
def test_cycle_closed_form(n):
    # a proper connected set of a cycle is an arc: n of each size, k through each vertex
    g = _cycle(n)
    assert phi_bruteforce(g).coeffs == tuple([n] * (n - 1) + [1])
    for v in (0, n - 1):
        assert phi_local_bruteforce(g, v).coeffs == tuple(range(1, n)) + (1,)

