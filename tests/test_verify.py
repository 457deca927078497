"""Extremal searches, verdicts, sweeps, and the counterexample machinery."""

import json
from fractions import Fraction

import pytest

from cographmean import (
    Family,
    Objective,
    canonical_graph,
    emit_graph6,
    extremal_search,
    format_cotree,
    global_mean,
    parse_cotree,
    parse_graph6,
    phi_bruteforce,
    phi_cotree,
    skillet,
    star,
    verify_disconnected_max,
    verify_inequality_sweeps,
    verify_path_min_conjecture,
    verify_structural_theorems,
    verify_table1,
    verify_table2,
)
from cographmean import enumeration as enumeration_module
from cographmean import knapsack as knapsack_module
from cographmean import sweeps as sweeps_module
from cographmean import verify as verify_module
from cographmean.cli import main
from cographmean.enumeration import (
    _caterpillar_graph,
    _caterpillar_profiles,
    enumerate_caterpillars,
)
from cographmean.errors import OrderOutOfRange, RangeError, UnknownFamily
from cographmean.poly import MeanFamily, _cmp_means, closed_form_means
from cographmean.verify import _extremes
from cographmean.sweeps import _caterpillar_pair, find_local_counterexample
from cographmean.verify import (
    DISCONNECTED_MAX,
    SKILLET_MIN,
    STAR_MAX,
    TABLE1,
    TABLE2,
    grid_graph,
    max_mean_connected_cograph,
    path_graph,
    run_claim,
    theta_graph,
    verify_skillet_min,
    verify_star_max,
)

import conftest
from conftest import oracle_extremal_search


def test_extremal_search_max_order5():
    report = extremal_search(Family.CONNECTED_COGRAPHS, 5, Objective.GLOBAL_MEAN_MAX)
    assert report.is_unique
    assert report.winner_form == "J(U(L,L),U(L,L,L))"
    assert report.winner_mean == Fraction(69, 26)
    assert report.runner_up_gap is not None and report.runner_up_gap > 0


def test_extremal_search_min_order5():
    report = extremal_search(Family.CONNECTED_COGRAPHS, 5, Objective.GLOBAL_MEAN_MIN)
    assert report.is_unique
    assert report.winner_form == format_cotree(skillet(5))
    assert report.winner_mean == Fraction(61, 24)


def test_extremal_search_reports_all_ties(monkeypatch):
    # No cotree family at orders 1-29 has tied winners, so feed the search's
    # oracle a worse order-5 cograph (mean 14/9), then two of equal mean 13/5.
    # The search's own ties are fed to it as graph extensions, in
    # test_tie_between_two_classes_is_not_unique.
    forms = ["U(J(L,L,L),L,L)", "J(L,U(L,L,L,L))", "J(L,L,L,U(L,L))"]
    monkeypatch.setattr(
        conftest, "generate", lambda family, n: (parse_cotree(f) for f in forms)
    )
    report = oracle_extremal_search(Family.COGRAPHS, 5, Objective.GLOBAL_MEAN_MAX)
    assert report.winners == (
        ("J(L,L,L,U(L,L))", Fraction(13, 5)),
        ("J(L,U(L,L,L,L))", Fraction(13, 5)),
    )
    assert not report.is_unique
    assert report.runner_up_gap == Fraction(13, 5) - Fraction(14, 9)


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("n", [5, 6, 7])
def test_extremal_search_formats_only_its_winners(monkeypatch, n, objective):
    calls = []

    def counted(g):
        calls.append(g)
        return canonical_graph(g)

    monkeypatch.setattr(verify_module, "canonical_graph", counted)
    report = extremal_search(Family.CONNECTED_GRAPHS, n, objective)
    # A winning class may arise from several tied extensions, one call each.
    formatted = {emit_graph6(canonical_graph(g)) for g in calls}
    assert formatted == {form for form, _ in report.winners}


@pytest.mark.parametrize(
    "family, order, message",
    [
        (Family.CONNECTED_COGRAPHS, 0, "connected-cographs search supports 1..64, got 0"),
        (Family.COGRAPHS, 65, "cographs search supports 1..64, got 65"),
        (Family.DISCONNECTED_COGRAPHS, 65, "disconnected-cographs search supports 1..64, got 65"),
        (Family.CONNECTED_GRAPHS, 0, "connected-graphs search supports 1..9, got 0"),
        (Family.CONNECTED_GRAPHS, 10, "connected-graphs search supports 1..9, got 10"),
        (Family.COGRAPHS, -3, "cographs search supports 1..64, got -3"),
    ],
)
def test_extremal_search_rejects_orders_outside_its_range(family, order, message):
    for objective in Objective:
        with pytest.raises(OrderOutOfRange) as caught:
            extremal_search(family, order, objective)
        assert str(caught.value) == message


def test_extremal_search_refuses_caterpillars():
    for order in (0, 5):
        with pytest.raises(UnknownFamily) as caught:
            extremal_search("caterpillars", order, Objective.GLOBAL_MEAN_MIN)
        assert str(caught.value) == "no extremal search over caterpillars"


@pytest.mark.parametrize("family", [Family.COGRAPHS, Family.CONNECTED_GRAPHS])
@pytest.mark.parametrize("objective", ["maximum", "MAX", "", None])
def test_extremal_search_rejects_an_unknown_objective(family, objective):
    with pytest.raises(RangeError) as caught:
        extremal_search(family, 5, objective)
    assert str(caught.value) == f"unknown objective {objective!r}, expected 'max' or 'min'"


@pytest.mark.parametrize("objective", list(Objective))
def test_extremal_search_takes_any_exact_start(objective):
    # An int, a float, a string or a Fraction start is converted exactly,
    # and any start gives the report of none.
    cold = extremal_search(Family.CONNECTED_COGRAPHS, 8, objective)
    for start in (3, 2.5, "7/2", Fraction(583, 135), 0):
        assert extremal_search(Family.CONNECTED_COGRAPHS, 8, objective, start) == cold, start


def _difference(x, y):
    return x - y


def test_extremes_keeps_ties_with_multiplicity():
    scored = [("a", 2), ("b", 5), ("c", 5), ("b", 5), ("d", 3)]
    assert _extremes(scored, _difference) == (5, ["b", "c", "b"], 3)


def test_extremes_of_equal_scores_has_no_runner_up():
    assert _extremes([("a", 4), ("b", 4), ("a", 4)], _difference) == (4, ["a", "b", "a"], None)


def test_extremes_of_one_item_and_of_none():
    assert _extremes([("a", 7)], _difference) == (7, ["a"], None)
    assert _extremes([], _difference) == (None, [], None)


@pytest.mark.parametrize("sign, expected", [(1, (4, ["c"], 3)), (-1, (1, ["b", "d"], 2))])
def test_extremes_maximises_and_minimises(sign, expected):
    scored = [("a", 3), ("b", 1), ("c", 4), ("d", 1), ("e", 2)]
    assert _extremes(scored, lambda x, y: sign * (x - y)) == expected


@pytest.mark.parametrize(
    "sign, expected",
    [(1, ((1, 3), ["a"], (1, 2))), (-1, ((1, 2), ["b", "c", "d"], (1, 3)))],
)
def test_extremes_keeps_the_first_score_of_each_mean(sign, expected):
    # (V, D) pairs compared by mean D/V: the last three all have mean 2.
    scored = [("a", (1, 3)), ("b", (1, 2)), ("c", (2, 4)), ("d", (3, 6))]
    assert _extremes(scored, lambda x, y: sign * _cmp_means(x, y)) == expected


def test_verify_table1_passes():
    verdict = verify_table1()
    assert verdict.passed
    assert len(verdict.log) == 6


def test_verify_star_max_small_window():
    verdict = verify_star_max(8)
    assert verdict.passed


def test_verify_skillet_min_small_window():
    verdict = verify_skillet_min(8)
    assert verdict.passed


def test_star_max_and_skillet_min_reach_order_14():
    star_verdict, skillet_verdict = verify_star_max(14), verify_skillet_min(14)
    assert star_verdict.passed and skillet_verdict.passed
    assert star_verdict.parameter_range == "n=7..14"
    assert star_verdict.log[-2:] == (
        "n=13: star mean 7171/1027, gap 731/602849",
        "n=14: star mean 61453/8205, gap 45043/67330230",
    )
    assert skillet_verdict.log[-1] == "n=14: skillet mean " + str(
        closed_form_means(MeanFamily.SKILLET, 14)
    )


@pytest.mark.slow
@pytest.mark.parametrize("suite", ["star-max", "skillet-min", "disconnected-max"])
def test_cotree_claims_reach_order_64(capsys, suite):
    """The paper's theorems hold for every n; the cotree claims check them up
    to the largest graph order (about 4-6 s each on a 2-core host)."""
    assert main(["verify", suite, "--nmax", "64"]) == 0
    (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdict["status"] == "PASS"
    assert verdict["parameter_range"].endswith("..64")
    assert verdict["log"][-1].startswith("n=64:")


def test_verify_disconnected_max_small_window():
    verdict = verify_disconnected_max(8)
    assert verdict.passed
    assert "U(J(L,L,L),L)" in verdict.log[2]  # order 4 winner: K_1 with a triangle


def test_verify_table2_small_window():
    verdict = verify_table2(5)
    assert verdict.passed
    assert any("3x3 grid" in line for line in verdict.log)


def test_verify_path_min_small_window():
    verdict = verify_path_min_conjecture(5)
    assert verdict.passed


# PATH_MIN pins no mean, so it has nothing to check here.
@pytest.mark.parametrize(
    "claim",
    [TABLE1, STAR_MAX, SKILLET_MIN, DISCONNECTED_MAX, TABLE2],
    ids=lambda claim: claim.theorem,
)
def test_claim_expected_forms_have_expected_means(claim):
    """Each claim's expected winner has its expected mean at every order the
    claim pins one, so the two columns of the claim cannot drift apart."""
    graph_family = claim.family is Family.CONNECTED_GRAPHS
    for n in range(claim.lo, claim.hi + 1):
        expected = claim.expected_mean(n)
        if expected is None:
            continue
        form = claim.expected_form(n)
        if graph_family:
            phi = phi_bruteforce(parse_graph6(form))
        else:
            phi = phi_cotree(parse_cotree(form))
        assert global_mean(phi) == expected, (n, form)


def test_nmax_validation():
    with pytest.raises(OrderOutOfRange):
        verify_table2(10)
    with pytest.raises(OrderOutOfRange):
        verify_path_min_conjecture(10)
    with pytest.raises(OrderOutOfRange):
        verify_path_min_conjecture(2)
    with pytest.raises(RangeError):
        verify_star_max(5)
    with pytest.raises(OrderOutOfRange):
        verify_disconnected_max(65)


def test_inequality_sweeps_pass_and_log_boundaries():
    verdicts = verify_inequality_sweeps(20)
    assert all(v.passed for v in verdicts)
    by_name = {v.theorem: v for v in verdicts}
    star_vs_two = by_name["bipartite-mean-star-beats-two"]
    assert any("n=6" in line and "loses" in line for line in star_vs_two.log)
    two_rest = by_name["mstar-two-rest-at-most-complete"]
    assert any("n=6: equality" in line for line in two_rest.log)
    assert any("below threshold" in line for line in two_rest.log)


def test_inequality_sweep_failure_keeps_rows_and_log(monkeypatch, capsys):
    passing = {v.theorem: v for v in verify_inequality_sweeps(20)}
    real_means = sweeps_module.closed_form_means

    def means_with_k2_rest_raised(family, n, *rest):
        mean = real_means(family, n, *rest)
        return mean + n if family is MeanFamily.K_2_N3 and n in (12, 15) else mean

    monkeypatch.setattr(sweeps_module, "closed_form_means", means_with_k2_rest_raised)
    verdicts = {v.theorem: v for v in verify_inequality_sweeps(20)}
    assert [name for name, v in verdicts.items() if not v.passed] == [
        "k1-plus-star-beats-k2-rest-mean"
    ]
    failed = verdicts["k1-plus-star-beats-k2-rest-mean"]
    assert failed.status == "FAIL"
    assert failed.witness == {"failures": [{"n": 12}, {"n": 15}]}
    assert failed.parameter_range == "n=9..20 (boundary 4..8 logged)"
    assert len(failed.log) == 5
    assert failed.log == passing["k1-plus-star-beats-k2-rest-mean"].log
    assert main(["verify", "inequalities", "--nmax", "20"]) == 1
    statuses = [v["status"] for v in json.loads(capsys.readouterr().out)["verdicts"]]
    assert statuses.count("FAIL") == 1


def test_structural_sweep_failure_keeps_rows_and_log(monkeypatch, capsys):
    passing = {v.theorem: v for v in verify_structural_theorems(4)}
    real_leaves = sweeps_module._leaf_pairs
    star4 = format_cotree(star(4))

    def leaves_with_bare_leaf(t):
        whole, pairs = real_leaves(t)
        if format_cotree(t) == star4:
            pairs[1] = (1, 1)  # the polynomial x: local mean 1
        return whole, pairs

    monkeypatch.setattr(sweeps_module, "_leaf_pairs", leaves_with_bare_leaf)
    verdicts = {v.theorem: v for v in verify_structural_theorems(4)}
    assert {name for name, v in verdicts.items() if not v.passed} == {
        "local-mean-at-least-half-order-plus",
        "local-mean-dominates-global",
    }
    row = {"n": 4, "form": star4, "vertex": 1, "local_mean": "1"}
    floor = verdicts["local-mean-at-least-half-order-plus"]
    assert floor.status == "FAIL"
    assert floor.witness == {"failures": [row]}
    assert floor.log == passing["local-mean-at-least-half-order-plus"].log
    dominates = verdicts["local-mean-dominates-global"]
    star_mean = str(global_mean(phi_cotree(star(4))))
    assert dominates.status == "FAIL"
    assert dominates.witness == {"failures": [{**row, "global_mean": star_mean}]}
    assert main(["verify", "local-mean", "--nmax", "4"]) == 1
    statuses = [v["status"] for v in json.loads(capsys.readouterr().out)["verdicts"]]
    assert statuses.count("FAIL") == 2


def test_structural_theorems_small_window():
    verdicts = verify_structural_theorems(6)
    assert all(v.passed for v in verdicts)
    names = {v.theorem for v in verdicts}
    assert "local-mean-at-least-half-order-plus" in names
    assert "component-order-caps-mean" in names


def test_theta_graph_shapes():
    assert theta_graph(1, 1, 1).degree_sequence() == (2, 2, 2, 3, 3)
    assert canonical_graph(theta_graph(1, 1, 1)) == canonical_graph(
        from_k23()
    )
    assert theta_graph(2, 2, 2).order == 8
    with pytest.raises(RangeError):
        theta_graph(0, 1, 1)


def from_k23():
    from cographmean import complete_bipartite, cotree_to_graph

    return cotree_to_graph(complete_bipartite(2, 3))


def test_path_and_grid_constructors():
    assert path_graph(4).degree_sequence() == (1, 1, 2, 2)
    g = grid_graph(3, 3)
    assert g.order == 9 and g.edge_count() == 12
    assert global_mean(phi_bruteforce(g)) == Fraction(1081, 218)


def test_q_sequence():
    assert format_cotree(max_mean_connected_cograph(5)) == "J(U(L,L),U(L,L,L))"
    assert format_cotree(max_mean_connected_cograph(9)) == format_cotree(
        __import__("cographmean").star(9)
    )


def test_verdict_json_shape():
    verdict = verify_table1()
    data = verdict.to_json_dict()
    assert set(data) == {"theorem", "parameter_range", "status", "witness", "log"}
    assert data["status"] == "PASS"


def patch_searches(monkeypatch, edit):
    """Pass every report of ``extremal_search``, the one search every claim
    makes, through ``edit(report)``."""
    real = verify_module.extremal_search
    monkeypatch.setattr(verify_module, "extremal_search", lambda *args: edit(real(*args)))


@pytest.mark.parametrize(
    "suite, check, n_max",
    [
        ("table1", verify_table1, 3),
        ("star-max", verify_star_max, 8),
        ("skillet-min", verify_skillet_min, 5),
        ("disconnected-max", verify_disconnected_max, 4),
        ("table2", verify_table2, 5),
        ("path-conjecture", verify_path_min_conjecture, 5),
    ],
)
def test_tied_winner_fails_at_its_order(monkeypatch, capsys, suite, check, n_max):
    """A tie at the top order fails the claim there, keeping earlier logs."""
    tied_reports = []

    def add_tie(report):
        if report.order != n_max:
            return report
        tied = report.replace(winners=report.winners + (("tie", report.winner_mean),))
        tied_reports.append(tied)
        return tied

    patch_searches(monkeypatch, add_tie)
    passing = check(n_max - 1)
    verdict = check(n_max)
    assert passing.passed
    assert verdict.status == "FAIL"
    assert verdict.witness == {"order": n_max, "report": tied_reports[0].to_json_dict()}
    # table2's grid line comes after the sweep, so a failed sweep drops it
    earlier = tuple(line for line in passing.log if not line.startswith("n=9:"))
    assert verdict.log == earlier
    assert earlier[-1].startswith(f"n={n_max - 1}:")
    assert main(["verify", suite, "--nmax", str(n_max)]) == 1
    assert json.loads(capsys.readouterr().out)["verdicts"][0]["status"] == "FAIL"


def test_disconnected_max_checks_closed_form_mean_from_order_8(monkeypatch):
    """Below order 8 the claim pins no mean; from 8 on, K1 u K_{1,n-2}'s."""

    def add_one_to_mean(report):
        ((form, mean),) = report.winners
        return report.replace(winners=((form, mean + 1),))

    patch_searches(monkeypatch, add_one_to_mean)
    monkeypatch.setattr(verify_module, "_recheck_by_phi_cotree", lambda report: True)
    assert verify_disconnected_max(7).passed
    verdict = verify_disconnected_max(8)
    assert verdict.status == "FAIL"
    assert verdict.witness["order"] == 8
    assert len(verdict.log) == 6


def test_cotree_winner_mean_is_rechecked_by_phi_cotree(monkeypatch):
    """DISCONNECTED_MAX pins no mean below order 8, so at order 5 only the
    phi_cotree recheck can catch a knapsack winner carrying a wrong mean.
    ``extremal_search`` imports the knapsack when called, so the patch goes
    on the knapsack module."""
    real = knapsack_module._extremal_cotrees

    def wrong_mean_at_5(family, n, sign, lam):
        winners, gap = real(family, n, sign, lam)
        if n == 5:
            ((form, mean),) = winners
            winners = ((form, mean + Fraction(1, 7)),)
        return winners, gap

    monkeypatch.setattr(knapsack_module, "_extremal_cotrees", wrong_mean_at_5)
    assert DISCONNECTED_MAX.expected_mean(5) is None
    verdict = run_claim(DISCONNECTED_MAX, 6)
    assert verdict.status == "FAIL"
    assert verdict.witness["order"] == 5
    (winner,) = verdict.witness["report"]["winners"]
    assert winner["form"] == DISCONNECTED_MAX.expected_form(5)
    assert len(verdict.log) == 3


# ---------------------------------------------------------------------------
# caterpillars scored by their spine segments for the local counterexample
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 17))
def test_tree_dp_matches_subset_count_on_every_caterpillar(n):
    """The caterpillar scan's pair, summed over spine segments, against the
    counted polynomial of the built tree."""
    for spine, leaves in _caterpillar_profiles(n):
        p = phi_bruteforce(_caterpillar_graph(spine, leaves))
        assert _caterpillar_pair(leaves) == (p.value_at_one(), p.derivative_at_one())


def test_caterpillar_profiles_give_the_enumerated_graphs_in_order():
    for n in range(2, 17):
        profiles = list(_caterpillar_profiles(n))
        assert all(
            spine == len(leaves) and spine + sum(leaves) == n
            for spine, leaves in profiles
        )
        assert [_caterpillar_graph(*p) for p in profiles] == list(enumerate_caterpillars(n))


def test_counterexample_builds_only_its_own_caterpillar(monkeypatch):
    """The scan scores leaf profiles; only the winner becomes a graph.  It
    is the first enumerated caterpillar whose counted mean exceeds 15/2."""
    first = next(
        tree for tree in enumerate_caterpillars(13)
        if global_mean(phi_bruteforce(tree)) > Fraction(15, 2)
    )
    built = []

    def counting(spine, leaves):
        built.append(leaves)
        return _caterpillar_graph(spine, leaves)

    monkeypatch.setattr(enumeration_module, "_caterpillar_graph", counting)
    monkeypatch.setattr(sweeps_module, "_caterpillar_graph", counting)
    found = find_local_counterexample(14)
    assert len(built) == 1
    assert found.base_tree == first
    assert found.base_tree_mean == global_mean(phi_bruteforce(first))
