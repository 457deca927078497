"""The fractional knapsack over cotrees against enumeration of every cotree."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cographmean
from cographmean import ExtremalReport, Family, Objective, extremal_search
from cographmean import knapsack as knapsack_module
from cographmean import verify as verify_module
from cographmean.enumeration import enumerate_cotrees
from cographmean.knapsack import _Tables
from cographmean.poly import phi_cotree
from cographmean.verify import (
    DISCONNECTED_MAX,
    SKILLET_MIN,
    STAR_MAX,
    TABLE1,
    run_claim,
)

from conftest import oracle_extremal_search

COTREE_FAMILIES = [Family.CONNECTED_COGRAPHS, Family.DISCONNECTED_COGRAPHS, Family.COGRAPHS]


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize(
    "family, n_max",
    [
        (Family.CONNECTED_COGRAPHS, 12),
        (Family.DISCONNECTED_COGRAPHS, 12),
        (Family.COGRAPHS, 9),
    ],
)
def test_knapsack_matches_enumeration(family, n_max, objective):
    for n in range(1, n_max + 1):
        assert extremal_search(family, n, objective) == oracle_extremal_search(family, n, objective)


def test_tables_rank_and_rebuild_like_enumeration():
    """At sampled λ, including crossings of two trees' scores, each table
    holds the top scores with multiplicity and rebuilds every tied best."""
    rng = random.Random(8)
    ties = 0
    for n in range(1, 8):
        for family in COTREE_FAMILIES:
            trees = [
                (t.form, phi_cotree(t).value_at_one(), phi_cotree(t).derivative_at_one())
                for t in enumerate_cotrees(n, family)
            ]
            lams = {Fraction(3, 2)}
            for _ in range(12 if trees else 0):
                (_, v1, d1), (_, v2, d2) = rng.choice(trees), rng.choice(trees)
                lams.add(Fraction(d1, v1))
                if v1 != v2:
                    lams.add(Fraction(d1 - d2, v1 - v2))
            for lam in lams:
                for sign in (1, -1):
                    a, b = lam.numerator, lam.denominator
                    scores = sorted(
                        ((sign * (b * d - a * v), form) for form, v, d in trees),
                        reverse=True,
                    )
                    for keep in (1, 2, 4):
                        tables = _Tables(n, lam, sign, keep)
                        top = [w for w, _, _ in tables.family(family, keep)]
                        assert top == [w for w, _ in scores[:keep]]
                    best = sorted(f for w, f in scores if w == scores[0][0])
                    rebuilt = tables.best_family_trees(family)
                    assert sorted(t.form for t in rebuilt) == best
                    ties += len(best) > 1
    assert ties > 0


@pytest.mark.parametrize(
    "claim, n_max",
    [(TABLE1, 6), (STAR_MAX, 10), (SKILLET_MIN, 10), (DISCONNECTED_MAX, 9)],
)
def test_wrong_expected_form_fails_alike_on_both_paths(monkeypatch, claim, n_max):
    wrong = claim.replace(
        expected_form=lambda n: "L" if n == n_max else claim.expected_form(n)
    )
    by_knapsack = run_claim(wrong, n_max).to_json_dict()
    monkeypatch.setattr(
        verify_module,
        "extremal_search",
        lambda family, n, objective, start: oracle_extremal_search(family, n, objective),
    )
    by_enumeration = run_claim(wrong, n_max).to_json_dict()
    assert by_knapsack["status"] == "FAIL"
    assert by_knapsack["witness"]["order"] == n_max
    assert by_knapsack == by_enumeration


def test_cotree_claims_build_no_pool():
    script = (
        "from cographmean import verify as v\n"
        "from cographmean.enumeration import _cotree_pool\n"
        "checks = [v.verify_star_max(12), v.verify_skillet_min(12),\n"
        "          v.verify_disconnected_max(10), v.verify_table1(6)]\n"
        "print(all(c.passed for c in checks), _cotree_pool.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cographmean.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "0"]


# ---------------------------------------------------------------------------
# the warm start
# ---------------------------------------------------------------------------

COTREE_CLAIMS = [TABLE1, STAR_MAX, SKILLET_MIN, DISCONNECTED_MAX]


def cold_report(family, n, objective):
    """The report of the search as first written: Dinkelbach from λ = 0
    keeping one entry, then the runner-up search seeded at the best mean."""
    sign = 1 if objective is Objective.GLOBAL_MEAN_MAX else -1

    def extreme(keep, lam, excluded):
        while True:
            tables = knapsack_module._Tables(n, lam, sign, keep)
            entry = next(
                (e for e in tables.family(family, keep)
                 if Fraction(e[2], e[1]) != excluded),
                None,
            )
            if entry is None or entry[0] == 0:
                return tables, entry
            lam = Fraction(entry[2], entry[1])

    tables, top = extreme(1, Fraction(0), None)
    winners, gap = (), None
    if top is not None:
        best = Fraction(top[2], top[1])
        forms = sorted(t.form for t in tables.best_family_trees(family))
        winners = tuple((form, best) for form in forms)
        _, runner_up = extreme(len(forms) + 1, best, best)
        gap = None if runner_up is None else abs(best - Fraction(runner_up[2], runner_up[1]))
    return ExtremalReport(family.value, n, objective.value, winners, gap)


def _check_warm_starts(claim, orders, steps):
    """At each order, the claimed mean (None for no claim) and the true
    mean one step above and below it give the cold start's report."""
    for n in orders:
        cold = cold_report(claim.family, n, claim.objective)
        truth = cold.winner_mean
        starts = [claim.expected_mean(n)]
        starts += [truth + sign * step for step in steps for sign in (1, -1)]
        for start in starts:
            assert extremal_search(claim.family, n, claim.objective, start) == cold, (n, start)


@pytest.mark.parametrize("claim", COTREE_CLAIMS, ids=lambda c: c.theorem)
def test_warm_start_gives_the_cold_report(claim):
    # A whole unit moves the first table's top tree; 2^-20 barely moves λ.
    orders = range(claim.lo, min(claim.hi, 24) + 1)
    _check_warm_starts(claim, orders, (Fraction(1), Fraction(1, 1 << 20)))


@pytest.mark.slow  # table1 stops at order 6
@pytest.mark.parametrize("claim", COTREE_CLAIMS[1:], ids=lambda c: c.theorem)
def test_warm_start_gives_the_cold_report_to_order_64(claim):
    _check_warm_starts(claim, range(25, claim.hi + 1), (Fraction(1),))


@pytest.mark.parametrize("maximize", [True, False])
@pytest.mark.parametrize("family", COTREE_FAMILIES, ids=["connected", "disconnected", "all"])
def test_no_start_gives_the_cold_results(family, maximize):
    objective = Objective.GLOBAL_MEAN_MAX if maximize else Objective.GLOBAL_MEAN_MIN
    for n in range(1, 13):
        assert extremal_search(family, n, objective) == cold_report(family, n, objective)


def _tables_built(monkeypatch):
    built = []

    class Counted(_Tables):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(knapsack_module, "_Tables", Counted)
    return built


def test_claimed_star_mean_is_certified_with_two_tables(monkeypatch):
    """At the star's mean the first table certifies the star, and its second
    entry is the runner-up, which the second table certifies."""
    built = _tables_built(monkeypatch)
    for n in range(STAR_MAX.lo, 25):
        built.clear()
        report = extremal_search(
            STAR_MAX.family, n, STAR_MAX.objective, STAR_MAX.expected_mean(n)
        )
        assert report.winner_form == STAR_MAX.expected_form(n)
        assert len(built) == 2, n
        assert built[0][1] == report.winner_mean
        assert built[1][1] == report.winner_mean - report.runner_up_gap


@pytest.mark.parametrize("claim", COTREE_CLAIMS, ids=lambda c: c.theorem)
def test_claimed_mean_never_builds_more_tables_than_a_cold_start(monkeypatch, claim):
    built = _tables_built(monkeypatch)
    for n in range(claim.lo, min(claim.hi, 16) + 1):
        built.clear()
        cold_report(claim.family, n, claim.objective)
        cold = len(built)
        built.clear()
        extremal_search(claim.family, n, claim.objective, claim.expected_mean(n))
        assert len(built) <= cold, n

