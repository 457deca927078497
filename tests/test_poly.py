"""Polynomials, means, reliability: frozen values and cross-oracle checks."""

from fractions import Fraction

import pytest

from conftest import all_labeled_graphs, oracle_phi_coeffs, random_cotree

from cographmean import (
    SubgraphPolynomial,
    complete,
    complete_bipartite,
    cotree_to_graph,
    density,
    edgeless,
    from_edge_list,
    global_mean,
    mstar_mean,
    node_reliability,
    phi_bruteforce,
    phi_cotree,
    phi_local_bruteforce,
    phi_local_cotree,
    skillet,
    star,
)
from cographmean.cotree import Cotree, JOIN, LEAF_TREE
from cographmean.enumeration import enumerate_cotrees
from cographmean.errors import (
    LeafOutOfRange,
    OrderOutOfRange,
    ProbabilityOutOfRange,
    VertexOutOfRange,
    ZeroPolynomial,
)
from cographmean.poly import _phi_local_leaves


def test_polynomial_invariants():
    with pytest.raises(ValueError):
        SubgraphPolynomial(2, (3, 0))  # a_1 > n
    with pytest.raises(ValueError):
        SubgraphPolynomial(2, (1, 2))  # a_n > 1
    with pytest.raises(ValueError):
        SubgraphPolynomial(2, (-1, 0))
    with pytest.raises(ValueError):
        SubgraphPolynomial(2, (1,))


def test_polynomial_json_round_trip():
    p = phi_cotree(star(5))
    data = p.to_json_dict()
    assert data == {"n": 5, "coeffs": ["5", "4", "6", "4", "1"]}
    assert SubgraphPolynomial.from_json_dict(data) == p


@pytest.mark.parametrize(
    "data, message",
    [
        ([5, ["5"]], "must be an object, got list"),
        ("x", "must be an object, got str"),
        ({"coeffs": ["1"]}, "has no 'n'"),
        ({"n": 1}, "has no 'coeffs'"),
        ({"n": 1, "coeffs": 1}, "wrong shape"),
        ({"n": None, "coeffs": ["1"]}, "wrong shape"),
        ({"n": 2, "coeffs": ["1"]}, "coefficient count"),
    ],
)
def test_polynomial_json_input_errors_are_value_errors(data, message):
    with pytest.raises(ValueError, match=message):
        SubgraphPolynomial.from_json_dict(data)


def test_phi_cotree_frozen_values():
    assert phi_cotree(star(4)).coeffs == (4, 3, 3, 1)
    assert phi_cotree(complete(4)).coeffs == (4, 6, 4, 1)
    assert phi_cotree(skillet(4)).coeffs == (4, 4, 3, 1)
    assert phi_cotree(edgeless(5)).coeffs == (5, 0, 0, 0, 0)


def test_phi_bruteforce_frozen_values():
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert phi_bruteforce(c4).coeffs == (4, 4, 4, 1)
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert phi_bruteforce(p4).coeffs == (4, 3, 2, 1)
    assert phi_bruteforce(cotree_to_graph(edgeless(5))).coeffs == (5, 0, 0, 0, 0)


def test_phi_bruteforce_cap():
    g = from_edge_list(5, [(i, i + 1) for i in range(4)])
    with pytest.raises(OrderOutOfRange):
        phi_bruteforce(g, cap=4)


def test_bruteforce_matches_independent_oracle():
    for g in all_labeled_graphs(4):
        assert phi_bruteforce(g).coeffs == oracle_phi_coeffs(g)


def test_cotree_vs_bruteforce_small_sample(rng):
    for n in range(1, 9):
        for t in enumerate_cotrees(n):
            assert phi_cotree(t) == phi_bruteforce(cotree_to_graph(t))
    for _ in range(40):
        t = random_cotree(rng, rng.randint(9, 20))
        assert phi_cotree(t) == phi_bruteforce(cotree_to_graph(t))


def test_local_polynomials_frozen():
    # the star's center (leaf 0 of the cotree) sees every subset around it
    assert phi_local_cotree(star(5), 0).coeffs == (1, 4, 6, 4, 1)
    # an outer vertex of the 3-path
    assert phi_local_cotree(star(3), 1).coeffs == (1, 1, 1)
    assert global_mean(phi_local_cotree(star(3), 1)) == 2
    assert phi_local_cotree(LEAF_TREE, 0).coeffs == (1,)
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert phi_local_bruteforce(p4, 0).coeffs == (1, 1, 1, 1)
    center = cotree_to_graph(star(5))
    assert phi_local_bruteforce(center, 0).coeffs == (1, 4, 6, 4, 1)


def test_local_errors():
    with pytest.raises(LeafOutOfRange):
        phi_local_cotree(star(3), 3)
    with pytest.raises(VertexOutOfRange):
        phi_local_bruteforce(from_edge_list(2, [(0, 1)]), 2)


def test_local_cotree_matches_bruteforce_at_every_leaf(rng):
    # the one pass gives every leaf at once; phi_local_cotree reads one entry
    trees = [t for n in range(1, 9) for t in enumerate_cotrees(n)]
    trees += [random_cotree(rng, n) for n in range(9, 13) for _ in range(5)]
    for t in trees:
        g = cotree_to_graph(t)
        expected = [phi_local_bruteforce(g, v) for v in range(t.leaf_count)]
        assert _phi_local_leaves(t) == expected
        assert [phi_local_cotree(t, v) for v in range(t.leaf_count)] == expected


def _handshake_holds(g) -> bool:
    total = [0] * g.order
    for v in range(g.order):
        for k, a in enumerate(phi_local_bruteforce(g, v).coeffs):
            total[k] += a
    phi = phi_bruteforce(g)
    return total == [k * a for k, a in enumerate(phi.coeffs, start=1)]


def test_handshake_identity_exhaustive_small():
    # summing local polynomials over all vertices counts each connected
    # subgraph once per vertex it contains
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert _handshake_holds(g)


def test_handshake_identity_sampled_orders_6_to_8(rng):
    from cographmean import from_edge_list

    for n in (6, 7, 8):
        for _ in range(15):
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.45
            ]
            assert _handshake_holds(from_edge_list(n, edges))


def test_means_frozen_values():
    assert global_mean(phi_cotree(complete_bipartite(2, 2))) == Fraction(28, 13)
    assert global_mean(phi_cotree(complete(3))) == Fraction(12, 7)
    assert global_mean(phi_cotree(complete(1))) == 1
    assert mstar_mean(phi_cotree(edgeless(6))) == 0
    assert mstar_mean(phi_cotree(star(3))) == Fraction(7, 3)
    assert mstar_mean(phi_cotree(complete(2))) == 2
    assert density(phi_cotree(complete(1))) == 1
    assert density(phi_cotree(complete_bipartite(2, 2))) == Fraction(7, 13)


def test_density_of_skillet_ten():
    # closed-form mean divided by the order
    assert density(phi_cotree(skillet(10))) == Fraction(1, 2) + Fraction(1, 15 * 2**9)


def test_zero_polynomial_errors():
    p = SubgraphPolynomial(2, (0, 0))
    with pytest.raises(ZeroPolynomial):
        global_mean(p)
    with pytest.raises(ZeroPolynomial):
        density(p)
    assert mstar_mean(p) == 0


def test_node_reliability_frozen_values():
    half = Fraction(1, 2)
    assert node_reliability(phi_cotree(complete(1)), half) == half
    assert node_reliability(phi_cotree(complete(3)), half) == Fraction(7, 8)
    assert node_reliability(phi_cotree(edgeless(2)), half) == half
    assert node_reliability(phi_cotree(complete(1)), Fraction(1, 3)) == Fraction(1, 3)


def test_node_reliability_range():
    p = phi_cotree(complete(3))
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ProbabilityOutOfRange):
            node_reliability(p, bad)


def test_reliability_transform_identity(rng):
    # (1+x)^n R(x/(1+x)) recovers the polynomial itself
    xs = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(7, 4), Fraction(9, 11)]
    for n in range(1, 7):
        for t in enumerate_cotrees(n):
            p = phi_cotree(t)
            assert 2**n * node_reliability(p, Fraction(1, 2)) == p.value_at_one()
            for x in xs:
                lhs = (1 + x) ** n * node_reliability(p, x / (1 + x))
                assert lhs == p.evaluate(x)


def test_mean_of_sum_is_convex_combination(rng):
    # the mean of a coefficientwise sum lies between the summands' means
    for _ in range(200):
        n = rng.randint(1, 10)
        a = [rng.randint(0, 9) for _ in range(n)]
        b = [rng.randint(0, 9) for _ in range(n)]
        if sum(a) == 0 or sum(b) == 0:
            continue
        mean = lambda c: Fraction(
            sum(k * x for k, x in enumerate(c, start=1)), sum(c)
        )
        lo, hi = sorted((mean(a), mean(b)))
        combined = mean([x + y for x, y in zip(a, b)])
        assert lo <= combined <= hi


def test_join_fold_is_grouping_independent():
    a = star(3)
    b = complete(2)
    c = edgeless(2)
    left = Cotree(JOIN, (a, b, c))
    right = Cotree(JOIN, (a, Cotree(JOIN, (b, c))))
    reordered = Cotree(JOIN, (c, a, b))
    assert phi_cotree(left) == phi_cotree(right) == phi_cotree(reordered)


def test_complement_identity_on_cographs():
    # the polynomials of a cograph and its complement tile the complete
    # graph's: phi_G + phi_co-G - nx = (1+x)^n - 1, coefficientwise
    from cographmean import complement_cotree
    from math import comb

    for n in range(1, 8):
        for t in enumerate_cotrees(n):
            p = phi_cotree(t)
            q = phi_cotree(complement_cotree(t))
            total = [x + y for x, y in zip(p.coeffs, q.coeffs)]
            total[0] -= n
            assert total == [comb(n, k) for k in range(1, n + 1)]
