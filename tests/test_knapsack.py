"""The fractional knapsack over cotrees against enumeration of every cotree."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cographmean
from cographmean import Family, GeneratorSpec, Objective, extremal_search
from cographmean import verify as verify_module
from cographmean.enumeration import enumerate_cotrees
from cographmean.knapsack import _Tables
from cographmean.poly import phi_cotree
from cographmean.verify import (
    DISCONNECTED_MAX,
    SKILLET_MIN,
    STAR_MAX,
    TABLE1,
    knapsack_search,
    run_claim,
)


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
        spec = GeneratorSpec(family, n)
        assert knapsack_search(spec, objective) == extremal_search(spec, objective)


def test_tables_rank_and_rebuild_like_enumeration():
    """At sampled λ, including crossings of two trees' scores, each table
    holds the top scores with multiplicity and rebuilds every tied best."""
    rng = random.Random(8)
    ties = 0
    for n in range(1, 8):
        for connectivity in ("connected", "disconnected", "all"):
            trees = [
                (t.form, phi_cotree(t).value_at_one(), phi_cotree(t).derivative_at_one())
                for t in enumerate_cotrees(n, connectivity)
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
                        top = [w for w, _, _ in tables.family(connectivity, keep)]
                        assert top == [w for w, _ in scores[:keep]]
                    best = sorted(f for w, f in scores if w == scores[0][0])
                    rebuilt = tables.best_family_trees(connectivity)
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
    monkeypatch.setattr(verify_module, "knapsack_search", extremal_search)
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
