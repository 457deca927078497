"""Extremal searches, verdicts, sweeps, and the counterexample machinery."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from cographmean import (
    Family,
    GeneratorSpec,
    Objective,
    canonical_graph,
    extremal_search,
    format_cotree,
    global_mean,
    merge_extremal_reports,
    phi_bruteforce,
    skillet,
    verify_disconnected_max,
    verify_inequality_sweeps,
    verify_path_min_conjecture,
    verify_structural_theorems,
    verify_table1,
    verify_table2,
)
from cographmean import verify as verify_module
from cographmean.cli import main
from cographmean.errors import OrderOutOfRange, RangeError
from cographmean.verify import (
    grid_graph,
    max_mean_connected_cograph,
    path_graph,
    theta_graph,
    verify_skillet_min,
    verify_star_max,
)


def test_extremal_search_max_order5():
    report = extremal_search(
        GeneratorSpec(Family.CONNECTED_COGRAPHS, 5), Objective.GLOBAL_MEAN_MAX
    )
    assert report.is_unique
    assert report.winner_form == "J(U(L,L),U(L,L,L))"
    assert report.winner_mean == Fraction(69, 26)
    assert report.runner_up_gap is not None and report.runner_up_gap > 0


def test_extremal_search_min_order5():
    report = extremal_search(
        GeneratorSpec(Family.CONNECTED_COGRAPHS, 5), Objective.GLOBAL_MEAN_MIN
    )
    assert report.is_unique
    assert report.winner_form == format_cotree(skillet(5))
    assert report.winner_mean == Fraction(61, 24)


def test_extremal_search_reports_all_ties():
    # at order 2 the two cographs have distinct means, so check a family
    # with a genuine tie: connected graphs of order 1 is trivially unique;
    # instead confirm tie handling via a sharded merge below
    report = extremal_search(
        GeneratorSpec(Family.COGRAPHS, 2), Objective.GLOBAL_MEAN_MAX
    )
    assert report.winner_form == "J(L,L)"
    assert report.runner_up_gap == Fraction(4, 3) - 1


def test_merge_shard_reports_equals_full_search():
    spec_full = GeneratorSpec(Family.CONNECTED_COGRAPHS, 6)
    full = extremal_search(spec_full, Objective.GLOBAL_MEAN_MAX)
    parts = [
        extremal_search(
            GeneratorSpec(Family.CONNECTED_COGRAPHS, 6, (i, 3)),
            Objective.GLOBAL_MEAN_MAX,
        )
        for i in range(3)
    ]
    merged = merge_extremal_reports(merge_extremal_reports(parts[0], parts[1]), parts[2])
    assert merged.winners == full.winners
    assert merged.runner_up_gap == full.runner_up_gap


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


def test_nmax_validation():
    with pytest.raises(OrderOutOfRange):
        verify_table2(9)
    with pytest.raises(OrderOutOfRange):
        verify_path_min_conjecture(2)
    with pytest.raises(RangeError):
        verify_star_max(5)
    with pytest.raises(OrderOutOfRange):
        verify_disconnected_max(13)


def test_inequality_sweeps_pass_and_log_boundaries():
    verdicts = verify_inequality_sweeps(20)
    assert all(v.passed for v in verdicts)
    by_name = {v.theorem: v for v in verdicts}
    star_vs_two = by_name["bipartite-mean-star-beats-two"]
    assert any("n=6" in line and "loses" in line for line in star_vs_two.log)
    two_rest = by_name["mstar-two-rest-at-most-complete"]
    assert any("n=6: equality" in line for line in two_rest.log)
    assert any("below threshold" in line for line in two_rest.log)


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
    real_search = verify_module.extremal_search
    tied_reports = []

    def search_with_tie(spec, objective):
        report = real_search(spec, objective)
        if spec.order != n_max:
            return report
        tied = replace(report, winners=report.winners + (("tie", report.winner_mean),))
        tied_reports.append(tied)
        return tied

    monkeypatch.setattr(verify_module, "extremal_search", search_with_tie)
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
    real_search = verify_module.extremal_search

    def search_with_wrong_mean(spec, objective):
        report = real_search(spec, objective)
        ((form, mean),) = report.winners
        return replace(report, winners=((form, mean + 1),))

    monkeypatch.setattr(verify_module, "extremal_search", search_with_wrong_mean)
    monkeypatch.setattr(verify_module, "_recheck_by_bruteforce", lambda report: True)
    assert verify_disconnected_max(7).passed
    verdict = verify_disconnected_max(8)
    assert verdict.status == "FAIL"
    assert verdict.witness["order"] == 8
    assert len(verdict.log) == 6
