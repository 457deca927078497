"""Graph construction, connectivity primitives, and complementation."""

import pytest

from conftest import all_labeled_graphs, has_induced_p4, oracle_connected

from cographmean import (
    Graph,
    complement,
    connected_components,
    from_edge_list,
    induced_subgraph,
    is_connected_subset,
)
from cographmean.errors import (
    EmptySubset,
    LoopEdge,
    OrderOutOfRange,
    VertexOutOfRange,
)


def test_from_edge_list_path3():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert g.adj == (0b010, 0b101, 0b010)


def test_from_edge_list_single_vertex():
    assert from_edge_list(1, []).adj == (0,)


def test_from_edge_list_path4_by_hand():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(2, 3)
    assert not g.has_edge(0, 2) and not g.has_edge(0, 3) and not g.has_edge(1, 3)
    assert g.degree_sequence() == (1, 1, 2, 2)


def test_duplicate_edges_collapse():
    g = from_edge_list(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_construction_errors():
    with pytest.raises(OrderOutOfRange):
        from_edge_list(0, [])
    with pytest.raises(OrderOutOfRange):
        from_edge_list(65, [])
    with pytest.raises(LoopEdge):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(VertexOutOfRange):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric


def test_complement_of_complete_is_edgeless():
    k4 = from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert complement(k4).edge_count() == 0


def test_complement_p3():
    g = complement(from_edge_list(3, [(0, 1), (1, 2)]))
    assert g.degree_sequence() == (0, 1, 1)


def test_complement_p4_is_p4():
    from cographmean.enumeration import canonical_graph

    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert canonical_graph(complement(p4)) == canonical_graph(p4)


def test_complement_is_involution():
    for g in all_labeled_graphs(4):
        assert complement(complement(g)) == g


def test_is_connected_subset_examples():
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert is_connected_subset(p4, 0b0111)
    assert not is_connected_subset(p4, 0b0101)
    assert is_connected_subset(p4, 0b1000)


def test_is_connected_subset_errors():
    g = from_edge_list(2, [(0, 1)])
    with pytest.raises(EmptySubset):
        is_connected_subset(g, 0)
    with pytest.raises(VertexOutOfRange):
        is_connected_subset(g, 0b100)


def test_connectivity_matches_bfs_oracle_small():
    for g in all_labeled_graphs(4):
        for subset in range(1, 1 << 4):
            assert is_connected_subset(g, subset) == oracle_connected(g, subset)


def test_connected_components_examples():
    g = from_edge_list(3, [(1, 2)])
    assert connected_components(g) == [0b001, 0b110]
    conn = from_edge_list(3, [(0, 1), (1, 2)])
    assert connected_components(conn) == [0b111]
    assert connected_components(from_edge_list(4, [])) == [1, 2, 4, 8]


def test_induced_subgraph_relabels():
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    sub = induced_subgraph(p4, 0b1101)  # vertices 0, 2, 3
    assert sub.order == 3
    assert sub.edges() == [(1, 2)]


def _complement_xor_holds(g: Graph) -> bool:
    cg = complement(g)
    for subset in range(1, 1 << g.order):
        if subset.bit_count() < 2:
            continue
        if is_connected_subset(g, subset) == is_connected_subset(cg, subset):
            return False
    return True


@pytest.mark.parametrize("n", range(2, 6))
def test_complement_xor_iff_p4_free_labeled(n):
    # each nontrivial subset induces a connected graph in exactly one of
    # g and its complement, precisely for the P4-free graphs
    for g in all_labeled_graphs(n):
        assert _complement_xor_holds(g) == (not has_induced_p4(g))


@pytest.mark.parametrize("n", [6, 7])
def test_complement_xor_iff_p4_free_classes(n):
    from cographmean.enumeration import _graph_classes

    for adj in _graph_classes(n):
        g = Graph(n, adj)
        assert _complement_xor_holds(g) == (not has_induced_p4(g))


@pytest.mark.slow
def test_complement_xor_iff_p4_free_order8():
    from cographmean.enumeration import _graph_classes

    for adj in _graph_classes(8):
        g = Graph(8, adj)
        assert _complement_xor_holds(g) == (not has_induced_p4(g))
