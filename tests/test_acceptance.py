"""Acceptance suite: every headline guarantee, checked exactly.

Each criterion prints a single pass/fail line (visible with ``pytest -s``
or on failure).  All comparisons are exact rational equalities; the few
runtime budgets are wall-clock assertions.

Three tests print criterion 05: the order 3..7 table, the grid test that
covers criterion 5's order-9 reference value, and the opt-in order-8 table.

Run with ``pytest tests/test_acceptance.py -v -s``; add ``--runslow`` for
the opt-in order-8 connected-graph sweeps.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from conftest import random_cotree

from cographmean import (
    Family,
    Objective,
    cotree_to_graph,
    density,
    enumerate_cotrees,
    extremal_search,
    find_local_counterexample,
    format_cotree,
    global_mean,
    phi_bruteforce,
    phi_cotree,
    phi_local_bruteforce,
    phi_local_cotree,
    skillet,
    star,
    verify_disconnected_max,
    verify_inequality_sweeps,
    verify_path_min_conjecture,
    verify_table1,
    verify_table2,
)
from cographmean.enumeration import _graph_classes, canonical_graph
from cographmean.errors import NotACograph
from cographmean.graph import Graph, emit_graph6, from_edge_list
from cographmean.cotree import graph_to_cotree
from cographmean.verify import grid_graph, theta_graph


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {num:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {num:02d} failed: {description}{suffix}"


def test_criterion_01_max_mean_table_orders_1_to_6():
    start = time.monotonic()
    verdict = verify_table1()
    elapsed = time.monotonic() - start
    _criterion(
        1,
        "unique max-mean connected cographs for orders 1..6 with exact means",
        verdict.passed and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_02_star_is_unique_max_orders_7_to_12():
    start = time.monotonic()
    ok = True
    for n in range(7, 13):
        report = extremal_search(Family.CONNECTED_COGRAPHS, n, Objective.GLOBAL_MEAN_MAX)
        expected = Fraction(n + 1, 2) - Fraction(
            (n - 1) ** 2, 2 * (2 ** (n - 1) + n - 1)
        )
        ok = ok and report.is_unique
        ok = ok and report.winner_form == format_cotree(star(n))
        ok = ok and report.winner_mean == expected
    elapsed = time.monotonic() - start
    _criterion(
        2,
        "star uniquely maximizes the mean over connected cographs, n=7..12",
        ok and elapsed < 600.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_03_skillet_is_unique_min_orders_3_to_12():
    ok = True
    for n in range(3, 13):
        report = extremal_search(Family.CONNECTED_COGRAPHS, n, Objective.GLOBAL_MEAN_MIN)
        expected = Fraction(n, 2) + Fraction(1, 3 * 2 ** (n - 2))
        ok = ok and report.is_unique
        ok = ok and report.winner_form == format_cotree(skillet(n))
        ok = ok and report.winner_mean == expected
    _criterion(
        3, "skillet uniquely minimizes the mean over connected cographs, n=3..12", ok
    )


def test_criterion_04_disconnected_max_orders_2_to_10():
    verdict = verify_disconnected_max(10)
    ok = verdict.passed
    # from order 8 on, the winner is an isolated vertex plus a spanning star
    for n in range(8, 11):
        report = extremal_search(Family.DISCONNECTED_COGRAPHS, n, Objective.GLOBAL_MEAN_MAX)
        expected = Fraction((n - 1) + n * 2 ** (n - 3), (n - 1) + 2 ** (n - 2))
        ok = ok and report.is_unique and report.winner_mean == expected
    _criterion(
        4,
        "isolated vertex plus best connected cograph maximizes over "
        "disconnected cographs, n=2..10",
        ok,
    )


def test_criterion_05_max_mean_connected_graphs_orders_3_to_7():
    start = time.monotonic()
    verdict = verify_table2(7)
    elapsed = time.monotonic() - start
    _criterion(
        5,
        "unique max-mean connected graphs for orders 3..7 with exact means",
        verdict.passed and elapsed < 900.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_05_grid_constant_as_specified():
    # The order-9 reference constant 996/197 is the mean of K4 with five of
    # its six edges subdivided once (canonical graph6 H??ZLRO), coefficients
    # 9,11,17,28,42,49,31,9,1.  The 3x3 grid's mean is 1081/218 (coefficients
    # 9,12,22,36,49,48,32,9,1), and theta(2,2,3) = 357/71 already beats it, so
    # the grid is not the order-9 maximum.  Maximality of 996/197 is asserted
    # by the opt-in `verify table2 --nmax 9` test in test_cli.py, not here.
    k4_subdivision = from_edge_list(
        9,
        [(0, 1), (0, 4), (4, 2), (0, 5), (5, 3), (1, 6),
         (6, 2), (1, 7), (7, 3), (2, 8), (8, 3)],
    )
    k4_phi = phi_bruteforce(k4_subdivision)
    k4_mean = global_mean(k4_phi)
    grid_phi = phi_bruteforce(grid_graph(3, 3))
    grid_mean = global_mean(grid_phi)
    theta_mean = global_mean(phi_bruteforce(theta_graph(2, 2, 3)))
    ok = (
        emit_graph6(canonical_graph(k4_subdivision)) == "H??ZLRO"
        and k4_phi.coeffs == (9, 11, 17, 28, 42, 49, 31, 9, 1)
        and k4_mean == Fraction(996, 197)
        and grid_phi.coeffs == (9, 12, 22, 36, 49, 48, 32, 9, 1)
        and grid_mean == Fraction(1081, 218)
        and theta_mean == Fraction(357, 71)
        and grid_mean < theta_mean < k4_mean
    )
    _criterion(
        5,
        "order-9 reference mean 996/197 belongs to the K4 subdivision H??ZLRO; "
        "the 3x3 grid has 1081/218 and is beaten by theta(2,2,3)",
        ok,
        f"K4 subdivision {k4_mean}, theta(2,2,3) {theta_mean}, grid {grid_mean}",
    )


def test_criterion_06_path_is_unique_min_orders_3_to_7():
    verdict = verify_path_min_conjecture(7)
    _criterion(
        6, "path uniquely minimizes the mean over connected graphs, n=3..7",
        verdict.passed,
    )


def test_criterion_07_oracle_equivalence():
    ok = True
    checked = 0
    for n in range(1, 9):
        for t in enumerate_cotrees(n):
            ok = ok and phi_cotree(t) == phi_bruteforce(cotree_to_graph(t))
            checked += 1
    rng = random.Random(20260810)
    for _ in range(200):
        n = rng.randint(9, 14)
        t = random_cotree(rng, n)
        ok = ok and phi_cotree(t) == phi_bruteforce(cotree_to_graph(t))
        checked += 1
    local_checked = 0
    for n in range(1, 8):
        for t in enumerate_cotrees(n):
            g = cotree_to_graph(t)
            for v in range(n):
                ok = ok and phi_local_cotree(t, v) == phi_local_bruteforce(g, v)
                local_checked += 1
    _criterion(
        7,
        "structural recursion equals subset-scan oracle, global and local",
        ok,
        f"{checked} polynomials, {local_checked} local polynomials",
    )


def test_criterion_08_local_mean_floor_and_dominance():
    ok = True
    equality_seen = 0
    for n in range(1, 9):
        floor = Fraction(n + 1, 2)
        for t in enumerate_cotrees(n, Family.CONNECTED_COGRAPHS):
            g_mean = global_mean(phi_cotree(t))
            ok = ok and g_mean <= floor
            for v in range(n):
                local = global_mean(phi_local_cotree(t, v))
                ok = ok and local >= floor
                if local == floor and n >= 2:
                    equality_seen += 1
                # equality of local and global only at the single vertex
                ok = ok and (local > g_mean if n >= 2 else local == g_mean)
    p3_leaf = global_mean(phi_local_cotree(star(3), 1))
    ok = ok and p3_leaf == 2 and equality_seen > 0
    _criterion(
        8,
        "local means sit at or above (n+1)/2, above the global mean, "
        "with the floor attained",
        ok,
        f"{equality_seen} equality witnesses",
    )


def test_criterion_09_local_counterexample_order_14():
    found = find_local_counterexample(14)
    ok = (
        found.graph.order == 14
        and found.local_mean == Fraction(15, 2)
        and found.local_mean < found.global_mean < found.base_tree_mean
    )
    _criterion(
        9,
        "order-14 graph with a vertex whose local mean 15/2 undercuts the global",
        ok,
        f"global {found.global_mean}, tree {found.base_tree_mean}",
    )


def test_criterion_10_inequality_sweeps_to_64():
    start = time.monotonic()
    verdicts = verify_inequality_sweeps(64)
    elapsed = time.monotonic() - start
    ok = all(v.passed for v in verdicts)
    by_name = {v.theorem: v for v in verdicts}
    boundary_logged = any(
        "below threshold" in line
        for line in by_name["bipartite-mean-star-beats-two"].log
    ) and any(
        "below threshold" in line
        for line in by_name["mstar-two-rest-at-most-complete"].log
    )
    _criterion(
        10,
        "all closed-form inequalities hold to n=64 with boundary rows logged",
        ok and boundary_logged and elapsed < 5.0,
        f"{len(verdicts)} sweeps, {elapsed:.2f}s",
    )


def test_criterion_11_complement_identity_exactly_on_cographs():
    ok = True
    for n in range(1, 8):
        binomials = [comb(n, k) for k in range(1, n + 1)]
        for adj in _graph_classes(n):
            g = Graph(n, adj)
            try:
                t = graph_to_cotree(g)
                is_cograph = True
            except NotACograph:
                is_cograph = False
            p = phi_bruteforce(g)
            from cographmean import complement

            q = phi_bruteforce(complement(g))
            total = [x + y for x, y in zip(p.coeffs, q.coeffs)]
            total[0] -= n
            ok = ok and (total == binomials) == is_cograph
    _criterion(
        11,
        "complement polynomials tile the complete graph's exactly for "
        "cographs and never otherwise, n<=7",
        ok,
    )


def test_criterion_12_density_bounds():
    ok = True
    for n in range(1, 11):
        lo, hi = Fraction(n, 2), Fraction(n + 1, 2)
        for t in enumerate_cotrees(n, Family.CONNECTED_COGRAPHS):
            mean = global_mean(phi_cotree(t))
            ok = ok and (lo < mean <= hi)
            ok = ok and (mean == hi) == (n == 1)
    half = Fraction(1, 2)
    tolerance = Fraction(1, 64)
    star_density = density(phi_cotree(star(64)))
    skillet_density = density(phi_cotree(skillet(64)))
    ok = ok and abs(star_density - half) <= tolerance
    ok = ok and abs(skillet_density - half) <= tolerance
    _criterion(
        12,
        "connected-cograph means sit in (n/2, (n+1)/2] up to n=10; "
        "order-64 star and skillet densities are within 1/64 of 1/2",
        ok,
        f"star density ~{float(star_density):.6f}",
    )


@pytest.mark.slow
def test_optin_connected_graph_table_order_8():
    verdict = verify_table2(8)
    row8 = [line for line in verdict.log if line.startswith("n=8")]
    _criterion(
        5,
        "opt-in: unique max-mean connected graph at order 8 with mean 22/5",
        verdict.passed and "22/5" in row8[0],
        row8[0] if row8 else "missing",
    )


@pytest.mark.slow
def test_optin_path_min_order_8():
    verdict = verify_path_min_conjecture(8)
    _criterion(
        6, "opt-in: path uniquely minimizes over connected graphs at order 8",
        verdict.passed,
    )


@pytest.mark.slow
def test_optin_star_skillet_orders_13_14():
    ok = True
    for n in (13, 14):
        top = extremal_search(Family.CONNECTED_COGRAPHS, n, Objective.GLOBAL_MEAN_MAX)
        bottom = extremal_search(Family.CONNECTED_COGRAPHS, n, Objective.GLOBAL_MEAN_MIN)
        ok = ok and top.winner_form == format_cotree(star(n))
        ok = ok and bottom.winner_form == format_cotree(skillet(n))
    _criterion(
        2, "opt-in: star max and skillet min extend to orders 13..14", ok
    )
