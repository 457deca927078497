"""The sweeps' integer means against the polynomials and fractions they replace.

``sweeps`` holds a mean as the pair (V, D) of a polynomial's value and
derivative at 1 and compares two means by cross-multiplying, with the pair
rules of ``poly``.  The oracles are the polynomial recursions
``phi_cotree`` and ``_phi_local_leaves``, and the sweeps' ``Fraction``
comparisons as first written.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from test_cotree_properties import cotrees

from cographmean.enumeration import enumerate_cotrees
from cographmean.poly import (
    _cmp_means,
    _pair_mean,
    _phi_local_leaves,
    _power_pair,
    closed_form_psi,
    mstar_mean,
    phi_cotree,
)
from cographmean.sweeps import _bipartite, _leaf_pairs, _mstar_pair, _pair


def test_power_pair_is_the_binomial_sum():
    """x^k (1+x)^q has coefficient C(q, j) at x^(k+j)."""
    for k in range(25):
        for q in range(25):
            value = sum(comb(q, j) for j in range(q + 1))
            deriv = sum((k + j) * comb(q, j) for j in range(q + 1))
            assert _power_pair(k, q) == (value, deriv), (k, q)


def _check_pairs(t):
    p = phi_cotree(t)
    whole = (p.value_at_one(), p.derivative_at_one())
    assert _pair(t) == whole
    leaves = [(q.value_at_one(), q.derivative_at_one()) for q in _phi_local_leaves(t)]
    assert _leaf_pairs(t) == (whole, leaves)
    assert _pair_mean(_mstar_pair(t)) == mstar_mean(p)


@pytest.mark.parametrize("n", range(1, 10))
def test_pairs_match_the_polynomials_on_every_cotree(n):
    for t in enumerate_cotrees(n):
        _check_pairs(t)


@settings(deadline=None, max_examples=200)
@given(cotrees())
def test_pairs_match_the_polynomials_on_random_cotrees(t):
    _check_pairs(t)


def _mstar(s, n):
    value, deriv = closed_form_psi(s, n)
    return Fraction(deriv, value)


def _bipartite_mean(s, n):
    value, deriv = closed_form_psi(s, n)
    return Fraction(n + deriv, n + value)


def test_bipartite_pairs_are_the_closed_form_means():
    for n in range(2, 129):
        for s in range(1, n):
            assert _pair_mean(_bipartite(s, n, True)) == _mstar(s, n)
            assert _pair_mean(_bipartite(s, n)) == _bipartite_mean(s, n)


def test_integer_inequality_tests_agree_with_fractions():
    """Each (n, s) test of the inequality sweeps, and its mirror s -> n - s,
    where the two means are equal."""
    for n in range(2, 129):
        half = Fraction(n, 2)
        for s in range(1, n):
            mirror = n - s
            for t in {s + 1, 1, mirror} - {n}:
                assert (_cmp_means(_bipartite(s, n, True), _bipartite(t, n, True)) > 0) == (
                    _mstar(s, n) > _mstar(t, n)
                )
                assert (_cmp_means(_bipartite(s, n, True), _bipartite(t, n, True)) <= 0) == (
                    _mstar(t, n) >= _mstar(s, n)
                )
                assert (_cmp_means(_bipartite(s, n), _bipartite(t, n)) > 0) == (
                    _bipartite_mean(s, n) > _bipartite_mean(t, n)
                )
            assert (_cmp_means(_bipartite(s, n, True), (2, n)) > 0) == (_mstar(s, n) > half)
