"""The per-vertex structural sweeps against the enumerative rows they replace.

``sweeps`` takes every leaf's local value and derivative at 1 from one pass
per cotree, decides the local floor and dominance on integers, and reads
2-connectivity and the surplus off the cotree.  The generators below are
those sweeps as first written: one ``Fraction`` per (tree, leaf) from
``phi_local_cotree``, and ``phi_bruteforce`` on each G - v.  They are the
oracle.  Faults are injected at ``sweeps._leaf_pairs``, as the value and
derivative at 1 of a perturbed polynomial.
"""

import random
from fractions import Fraction

import pytest

from cographmean import (
    Family,
    complete,
    cotree_to_graph,
    format_cotree,
    global_mean,
    induced_subgraph,
    is_connected,
    phi_bruteforce,
    phi_cotree,
    phi_local_cotree,
)
from cographmean import sweeps as sweeps_module
from cographmean.cli import main
from cographmean.errors import NoWitnessFound
from cographmean.verdict import TheoremVerdict
from cographmean.enumeration import enumerate_cotrees
from cographmean.poly import SubgraphPolynomial, _phi_local_leaves


def fraction_floor_rows(n_max, local=phi_local_cotree):
    equality_hits = 0
    for n in range(1, n_max + 1):
        floor = Fraction(n + 1, 2)
        for t in enumerate_cotrees(n, Family.CONNECTED_COGRAPHS):
            for leaf in range(n):
                value = global_mean(local(t, leaf))
                if value < floor:
                    yield {"n": n, "form": format_cotree(t), "vertex": leaf,
                           "local_mean": str(value)}
                elif value == floor and n >= 2:
                    equality_hits += 1
    if equality_hits == 0:
        yield {"clause": "no equality witness observed"}
    yield f"equality witnesses (n>=2): {equality_hits}"


def fraction_dominates_rows(n_max, local=phi_local_cotree):
    for n in range(1, n_max + 1):
        for t in enumerate_cotrees(n, Family.CONNECTED_COGRAPHS):
            g_mean = global_mean(phi_cotree(t))
            for leaf in range(n):
                value = global_mean(local(t, leaf))
                if value < g_mean or (value == g_mean and n >= 2):
                    yield {"n": n, "form": format_cotree(t), "vertex": leaf,
                           "local_mean": str(value), "global_mean": str(g_mean)}


def bruteforce_surplus_rows(n_max):
    checked = 0
    for n in range(4, n_max + 1):
        for t in enumerate_cotrees(n, Family.CONNECTED_COGRAPHS):
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


INTEGER_AND_FRACTION_ROWS = [
    (sweeps_module._local_floor_rows, fraction_floor_rows),
    (sweeps_module._local_dominates_rows, fraction_dominates_rows),
]


@pytest.mark.parametrize("fast, oracle", INTEGER_AND_FRACTION_ROWS)
def test_integer_rows_equal_fraction_rows(fast, oracle):
    for n_max in (1, 2, 5, 9):
        assert list(fast(n_max)) == list(oracle(n_max))


def as_pair(p):
    return p.value_at_one(), p.derivative_at_one()


def perturbed(t, leaf, p):
    """``p``, or with a fixed chance a polynomial below the floor, on it, or
    with the global mean; chosen from the tree and leaf alone."""
    n = t.leaf_count
    pick = random.Random(f"{format_cotree(t)}/{leaf}").randrange(5)
    if pick == 1:
        return SubgraphPolynomial._make(n, (1,) + (0,) * (n - 1))
    if pick == 2:
        return phi_local_cotree(complete(n), 0)  # mean (n+1)/2
    if pick == 3:
        return phi_cotree(t)
    return p


@pytest.mark.parametrize("fast, oracle", INTEGER_AND_FRACTION_ROWS)
def test_integer_rows_equal_fraction_rows_when_the_sweeps_fail(monkeypatch, fast, oracle):
    real_pairs = sweeps_module._leaf_pairs
    monkeypatch.setattr(
        sweeps_module,
        "_leaf_pairs",
        lambda t: (
            real_pairs(t)[0],
            [as_pair(perturbed(t, leaf, p)) for leaf, p in enumerate(_phi_local_leaves(t))],
        ),
    )
    expected = list(oracle(7, lambda t, leaf: perturbed(t, leaf, phi_local_cotree(t, leaf))))
    assert sum(isinstance(row, dict) for row in expected) > 100
    assert list(fast(7)) == expected


def test_surplus_rows_equal_bruteforce_rows():
    for n_max in (4, 6, 9):
        assert list(sweeps_module._biconnected_surplus_rows(n_max)) == list(
            bruteforce_surplus_rows(n_max)
        )


def test_cut_leaf_is_the_only_vertex_whose_removal_disconnects():
    for n in range(2, 10):
        for t in enumerate_cotrees(n, Family.CONNECTED_COGRAPHS):
            g = cotree_to_graph(t)
            cut = sweeps_module._cut_leaf(t)
            for v in range(n):
                rest = induced_subgraph(g, g.full_mask & ~(1 << v))
                assert is_connected(rest) == (v != cut), (format_cotree(t), v)


def test_deleting_a_vertex_loses_exactly_its_local_count():
    for n in range(2, 9):
        for t in enumerate_cotrees(n):
            g = cotree_to_graph(t)
            total = phi_cotree(t).value_at_one()
            for v, local in enumerate(_phi_local_leaves(t)):
                rest = induced_subgraph(g, g.full_mask & ~(1 << v))
                assert total - local.value_at_one() == phi_bruteforce(rest).value_at_one()


def test_surplus_means_more_than_half_the_connected_sets(monkeypatch):
    # With a local count of exactly half, deleting the vertex leaves as many
    # connected sets as it holds: no surplus.
    t = next(
        t for t in enumerate_cotrees(5, Family.CONNECTED_COGRAPHS)
        if sweeps_module._cut_leaf(t) is None and phi_cotree(t).value_at_one() % 2 == 0
    )
    half = phi_cotree(t).value_at_one() // 2
    real_pairs = sweeps_module._leaf_pairs

    def half_at_every_leaf(tree):
        whole, pairs = real_pairs(tree)
        if tree != t:
            return whole, pairs
        return whole, [as_pair(SubgraphPolynomial._make(5, (1, half - 1, 0, 0, 0)))] * 5

    monkeypatch.setattr(sweeps_module, "_leaf_pairs", half_at_every_leaf)
    rows = list(sweeps_module._biconnected_surplus_rows(6))
    assert [row for row in rows if isinstance(row, dict)] == [
        {"n": 5, "form": format_cotree(t)}
    ]


def test_a_missing_local_counterexample_is_a_fail_verdict(monkeypatch, capsys):
    """When the search finds no witness, the verdict is FAIL with the
    searched range, and ``verify local-mean`` exits 1."""
    found = sweeps_module.verify_local_counterexample()
    assert found.passed

    def no_witness(n):
        raise NoWitnessFound(f"no caterpillar of order {n - 1} qualifies")

    monkeypatch.setattr(sweeps_module, "find_local_counterexample", no_witness)
    verdict = sweeps_module.verify_local_counterexample()
    assert verdict == TheoremVerdict(
        found.theorem,
        found.parameter_range,
        "FAIL",
        {"searched": "caterpillars of order 13", "error": "no caterpillar of order 13 qualifies"},
        (),
    )
    assert (verdict.theorem, verdict.parameter_range) == ("local-mean-below-global-witness", "n=14")
    assert main(["verify", "local-mean"]) == 1
    assert '"status": "FAIL"' in capsys.readouterr().out
