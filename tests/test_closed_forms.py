"""Closed-form means and the complete-bipartite extra polynomial."""

from fractions import Fraction

import pytest

from cographmean import (
    MeanFamily,
    closed_form_means,
    closed_form_psi,
    complete,
    complete_bipartite,
    cotree_to_graph,
    global_mean,
    mstar_mean,
    phi_bruteforce,
    phi_cotree,
    skillet,
    star,
)
from cographmean.cotree import Cotree, UNION, LEAF_TREE, canonicalize
from cographmean.errors import RangeError, UnknownFamily


def test_psi_frozen_values():
    assert closed_form_psi(1, 3) == (3, 7)
    assert closed_form_psi(2, 4) == (9, 24)
    assert closed_form_psi(1, 2) == (1, 2)


def test_psi_range_errors():
    for s, n in [(0, 3), (3, 3), (5, 4), (1, 1)]:
        with pytest.raises(RangeError):
            closed_form_psi(s, n)


@pytest.mark.parametrize("n", range(2, 9))
def test_psi_matches_bruteforce(n):
    # the closed form equals the brute-force count of subsets that straddle
    # both sides of a complete bipartite graph, plus its within-side pieces
    for s in range(1, n):
        g = cotree_to_graph(complete_bipartite(s, n - s))
        p = phi_bruteforce(g)
        value, deriv = closed_form_psi(s, n)
        assert p.value_at_one() - n == value
        assert p.derivative_at_one() - n == deriv


def test_means_frozen_values():
    assert closed_form_means(MeanFamily.STAR, 4) == Fraction(23, 11)
    assert closed_form_means(MeanFamily.SKILLET, 4) == Fraction(25, 12)
    assert closed_form_means(MeanFamily.COMPLETE, 4) == Fraction(32, 15)
    assert closed_form_means("star", 1) == 1
    assert closed_form_means("star", 2) == Fraction(4, 3)
    assert closed_form_means("complete", 1) == 1
    assert closed_form_means("k1-union-star", 3) == Fraction(5, 4)


def test_unknown_family_and_ranges():
    with pytest.raises(UnknownFamily):
        closed_form_means("triangle-fan", 5)
    with pytest.raises(RangeError):
        closed_form_means(MeanFamily.SKILLET, 2)
    with pytest.raises(RangeError):
        closed_form_means(MeanFamily.STAR_MSTAR, 3)
    with pytest.raises(UnknownFamily):
        closed_form_means("complete-bipartite-mstar", 5)  # see closed_form_psi


@pytest.mark.parametrize("n", range(3, 31))
def test_closed_forms_match_cotree_recursion(n):
    assert closed_form_means(MeanFamily.STAR, n) == global_mean(phi_cotree(star(n)))
    assert closed_form_means(MeanFamily.SKILLET, n) == global_mean(
        phi_cotree(skillet(n))
    )
    assert closed_form_means(MeanFamily.COMPLETE, n) == global_mean(
        phi_cotree(complete(n))
    )
    for s in range(1, n):
        value, deriv = closed_form_psi(s, n)
        assert Fraction(deriv, value) == mstar_mean(phi_cotree(complete_bipartite(s, n - s)))


@pytest.mark.parametrize("n", range(4, 21))
def test_ambient_indexed_families_match_their_graphs(n):
    # families stated at ambient order n describe graphs of order n-1 or n-2
    k1_star = canonicalize(Cotree(UNION, (LEAF_TREE, star(n - 1))))
    assert closed_form_means(MeanFamily.K1_UNION_STAR, n) == global_mean(
        phi_cotree(k1_star)
    )
    assert closed_form_means(MeanFamily.STAR_MSTAR, n) == mstar_mean(
        phi_cotree(star(n - 2))
    )
    assert closed_form_means(MeanFamily.K_2_N3, n) == global_mean(
        phi_cotree(complete_bipartite(2, n - 3))
    )
    assert closed_form_means(MeanFamily.STAR_N3, n) == global_mean(
        phi_cotree(star(n - 2))
    )
