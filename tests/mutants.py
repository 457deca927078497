#!/usr/bin/env python3
"""Mutation checks that stay in the tree.

Each record of ``MUTANTS`` breaks the package in one place: in ``file``
(under ``src/``) the exact ``snippet``, which occurs once in ``src/``,
becomes ``replacement``, and each test named in ``tests`` must then fail.
For each record the script copies ``src/`` to a temporary directory,
applies the mutant there, runs pytest on the named tests with the copy
first on ``PYTHONPATH``, and prints ``killed`` (every named test failed) or
``survived`` (with the named tests that passed).  It exits 1 if any mutant
survives.  Run it from anywhere, with pytest installed:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # only these
    python tests/mutants.py --list       # names, files and tests

pytest does not collect this file.  ``tests/test_mutants.py`` checks in
tier-1 that every snippet still occurs exactly once in ``src/`` and that
every named test exists, so a change that moves or rewrites a snippet must
move its record with it.  A change that adds a fast path adds its mutants
here.  Under ``pytest --runslow``, ``test_every_mutant_is_killed`` runs
this script and expects exit 0.

A full pass of the 60 mutants took 70-81 s (two runs) on a 2-core host,
one mutant at a time.

Background: DeMillo, Lipton and Sayward 1978, "Hints on test data
selection: help for the practicing programmer", IEEE Computer 11(4).
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIMEOUT = 120  # seconds for one mutant's tests; a mutant can make the code loop


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


_RANGES = "tests/test_order_ranges.py::test_order_range_of_every_entry_point"
_VALUES = "tests/test_values.py"
_COUNTS = "tests/test_connected_sets.py"
_SEARCH = "tests/test_graph_search.py"
_KNAPSACK = "tests/test_knapsack.py"
_LOCAL = "tests/test_local_sweeps.py"

MUTANTS = [
    # -- the order-range rule -------------------------------------------
    Mutant(
        "check-order-open-at-hi", "cographmean/errors.py",
        "    if not lo <= n <= hi:",
        "    if not lo <= n < hi:",
        (f"{_RANGES}[star]", f"{_RANGES}[parse_graph6]"),
    ),
    # -- plain records (graph.Value) -----------------------------------
    Mutant(
        "value-accepts-unknown-names", "cographmean/graph.py",
        "            if key not in self._fields:\n"
        "                raise TypeError(f\"{name}() has no field {key!r}\")\n",
        "",
        (
            f"{_VALUES}::test_records_reject_bad_arguments_naming_the_class[Sweep]",
            f"{_VALUES}::test_verdict_replace_builds_a_new_verdict",
        ),
    ),
    Mutant(
        "value-defaults-override-given-fields", "cographmean/graph.py",
        "        values = self._defaults | values | kwargs",
        "        values = values | kwargs | self._defaults",
        (
            f"{_VALUES}::test_records_fill_omitted_fields_from_their_defaults",
            f"{_VALUES}::test_records_built_by_position_and_by_name_are_equal[ExtremalClaim]",
        ),
    ),
    Mutant(
        "value-ignores-defaults", "cographmean/graph.py",
        "        values = self._defaults | values | kwargs",
        "        values = values | kwargs",
        (
            f"{_VALUES}::test_records_fill_omitted_fields_from_their_defaults",
        ),
    ),
    Mutant(
        "value-keyword-overwrites-positional", "cographmean/graph.py",
        "            if key in values:\n"
        "                raise TypeError(f\"{name}() got field {key!r} twice\")\n",
        "",
        (
            f"{_VALUES}::test_records_reject_bad_arguments_naming_the_class[TheoremVerdict]",
            f"{_VALUES}::test_records_reject_bad_arguments_naming_the_class[Sweep]",
        ),
    ),
    Mutant(
        "value-no-delattr", "cographmean/graph.py",
        "    def __delattr__(self, name):\n"
        "        raise AttributeError(f\"cannot delete field {name!r}\")\n",
        "",
        (
            f"{_VALUES}::test_assignment_and_deletion_raise[Graph]",
            f"{_VALUES}::test_assignment_and_deletion_raise[TheoremVerdict]",
        ),
    ),
    Mutant(
        "value-no-reduce", "cographmean/graph.py",
        "    def __reduce__(self):\n"
        "        return type(self), tuple(self._asdict().values())\n",
        "",
        (
            f"{_VALUES}::test_copy_and_pickle_round_trips[copy-Graph]",
            f"{_VALUES}::test_copy_and_pickle_round_trips[copy-TheoremVerdict]",
        ),
    ),
    Mutant(
        "polynomial-coefficients-as-list", "cographmean/poly.py",
        "        coeffs = tuple(coeffs)\n        if n < 1:",
        "        coeffs = list(coeffs)\n        if n < 1:",
        (
            f"{_VALUES}::test_a_list_argument_is_stored_as_a_tuple[SubgraphPolynomial]",
            "tests/test_poly.py::test_polynomial_json_round_trip",
        ),
    ),
    # -- graphs and the triangle code ----------------------------------
    Mutant(
        "triangle-bits-least-significant-first", "cographmean/graph.py",
        "            code = code << 1 | adj[row] >> col & 1",
        "            code |= (adj[row] >> col & 1) << col * (col - 1) // 2 + row",
        (
            "tests/test_graph6.py::test_triangle_code_round_trips_at_every_order",
            "tests/test_enumeration.py::test_canonical_graph6_body_packs_the_minimal_code",
        ),
    ),
    Mutant(
        "triangle-row-major", "cographmean/graph.py",
        "    for col in range(1, n):\n"
        "        for row in range(col):\n"
        "            code = code << 1 | adj[row] >> col & 1",
        "    for row in range(n - 1):\n"
        "        for col in range(row + 1, n):\n"
        "            code = code << 1 | adj[row] >> col & 1",
        (
            "tests/test_graph6.py::test_triangle_code_round_trips_at_every_order",
            "tests/test_graph6.py::test_extended_header_orders_63_and_64",
        ),
    ),
    Mutant(
        "edge-list-one-way", "cographmean/graph.py",
        "        adj[v] |= 1 << u\n",
        "",
        (
            "tests/test_graph.py::test_from_edge_list_path3",
            f"{_VALUES}::test_unchecked_graphs_pass_the_public_constructor",
        ),
    ),
    Mutant(
        "complement-keeps-loop-bits", "cographmean/graph.py",
        "tuple(full & ~mask & ~(1 << v) for v, mask in enumerate(g.adj))",
        "tuple(full & ~mask for v, mask in enumerate(g.adj))",
        (
            "tests/test_graph.py::test_complement_p3",
            f"{_VALUES}::test_unchecked_graphs_pass_the_public_constructor",
        ),
    ),
    Mutant(
        "cli-no-vertex-check-for-cotrees", "cographmean/cli.py",
        "        n = obj.leaf_count if isinstance(obj, Cotree) else obj.order",
        "        n = v + 1 if isinstance(obj, Cotree) else obj.order",
        (
            "tests/test_cli.py::test_local_mean_on_a_cotree_rejects_a_bad_leaf",
        ),
    ),
    # -- cotrees ----------------------------------------------------------
    Mutant(
        "form-without-commas", "cographmean/cotree.py",
        '",".join(c.form for c in children)',
        '"".join(c.form for c in children)',
        (
            "tests/test_cli.py::test_enumerate_connected_cographs_order2",
            "tests/test_acceptance.py::test_criterion_01_max_mean_table_orders_1_to_6",
        ),
    ),
    Mutant(
        "compose-unsorted-children", "cographmean/cotree.py",
        "tuple(sorted(chain.from_iterable(combo), key=format_cotree))",
        "tuple(chain.from_iterable(combo))",
        (
            "tests/test_cotree_properties.py::test_compose_yields_canonical_trees",
            "tests/test_acceptance.py::test_criterion_01_max_mean_table_orders_1_to_6",
        ),
    ),
    Mutant(
        "join-span-from-vertex-0", "cographmean/cotree.py",
        "        whole = ((1 << node.leaf_count) - 1) << offset",
        "        whole = (1 << node.leaf_count) - 1",
        (
            "tests/test_cotree.py::test_cotree_to_graph_examples",
            f"{_VALUES}::test_unchecked_graphs_pass_the_public_constructor",
        ),
    ),
    Mutant(
        "root-kinds-reversed", "cographmean/cotree.py",
        "    Family.COGRAPHS: (JOIN, UNION),",
        "    Family.COGRAPHS: (UNION, JOIN),",
        (
            "tests/test_cli.py::test_enumerate_cographs",
            "tests/test_enumeration.py::test_cotrees_order2_members",
        ),
    ),
    # -- polynomials ----------------------------------------------------
    Mutant(
        "power-pair-k-plus-q", "cographmean/poly.py",
        "    return 1 << q, (2 * k + q << q) >> 1",
        "    return 1 << q, (k + q << q) >> 1",
        (
            "tests/test_integer_means.py::test_power_pair_is_the_binomial_sum",
            "tests/test_integer_means.py::test_pairs_match_the_polynomials_on_every_cotree[5]",
        ),
    ),
    Mutant(
        "join-row-dropped", "cographmean/poly.py",
        "    coeffs = list(_binomial_row(t.leaf_count)) if join else [0] * t.leaf_count",
        "    coeffs = [0] * t.leaf_count",
        (
            "tests/test_poly.py::test_phi_cotree_frozen_values",
            "tests/test_poly.py::test_cotree_vs_bruteforce_small_sample",
        ),
    ),
    Mutant(
        "first-child-row-unsubtracted", "cographmean/poly.py",
        "        if join:\n            for k, c in enumerate(_binomial_row(p.n)):",
        "        if join and child is not t.children[0]:\n"
        "            for k, c in enumerate(_binomial_row(p.n)):",
        (
            "tests/test_poly.py::test_phi_cotree_frozen_values",
            "tests/test_poly.py::test_cotree_vs_bruteforce_small_sample",
        ),
    ),
    Mutant(
        "local-leaves-padded-long", "cographmean/poly.py",
        "    visit(t, [1] + [0] * (n - 1))",
        "    visit(t, [1] + [0] * n)",
        (
            "tests/test_poly.py::test_local_polynomials_frozen",
            "tests/test_poly.py::test_local_cotree_matches_bruteforce_at_every_leaf",
        ),
    ),
    # -- the connected-set counter --------------------------------------
    Mutant(
        "counter-no-below-in-out", "cographmean/poly.py",
        "        out = full ^ (below | adj[root] | 1 << root)",
        "        out = full ^ (adj[root] | 1 << root)",
        (
            "tests/test_acceptance.py::test_criterion_05_grid_constant_as_specified",
            "tests/test_cli.py::test_verify_table2_small",
        ),
    ),
    Mutant(
        "counter-no-below-root-exclusion", "cographmean/poly.py",
        "        below = 0 if required else (1 << root) - 1",
        "        below = 0",
        (
            f"{_COUNTS}::test_edge_cases_match_the_visiting_counter[path-and-triangle]",
            f"{_COUNTS}::test_path_closed_form[21]",
        ),
    ),
    Mutant(
        "counter-out-before-removing-neighbours", "cographmean/poly.py",
        "                out = free ^ new",
        "                out = free",
        (
            f"{_COUNTS}::test_counts_match_the_visiting_counter[16-0.3]",
            f"{_COUNTS}::test_counts_match_the_visiting_counter[15-0.5]",
        ),
    ),
    Mutant(
        "counter-extension-dropped", "cographmean/poly.py",
        "                    grown = ext | new",
        "                    grown = ext",
        (
            f"{_COUNTS}::test_edge_cases_match_the_visiting_counter[path-and-triangle]",
            f"{_COUNTS}::test_path_closed_form[21]",
        ),
    ),
    Mutant(
        "counter-correction-from-j-0", "cographmean/poly.py",
        "                for j in range(1, m + 1):",
        "                for j in range(m + 1):",
        (
            f"{_COUNTS}::test_edge_cases_match_the_visiting_counter[edgeless-2]",
            f"{_COUNTS}::test_path_closed_form[21]",
        ),
    ),
    Mutant(
        "counter-local-base-c-n-k", "cographmean/poly.py",
        "        counts = [0] + [comb(n - 1, k) for k in range(n)]",
        "        counts = [0] + [comb(n, k) for k in range(1, n + 1)]",
        (
            f"{_COUNTS}::test_edge_cases_match_the_visiting_counter[K2-star]",
            f"{_COUNTS}::test_path_closed_form[21]",
        ),
    ),
    # -- graph classes ----------------------------------------------------
    Mutant(
        "cells-ranked-in-reverse", "cographmean/enumeration.py",
        "        cells = [split[sig] for sig in sorted(split)]",
        "        cells = [split[sig] for sig in sorted(split, reverse=True)]",
        (
            "tests/test_acceptance.py::test_criterion_05_max_mean_connected_graphs_orders_3_to_7",
            "tests/test_cli.py::test_enumerate_emit_graph6",
        ),
    ),
    Mutant(
        "twins-test-inverted", "cographmean/enumeration.py",
        "if adj[u] & ~(1 << v) == adj[v] & ~(1 << u)",
        "if adj[u] & ~(1 << v) != adj[v] & ~(1 << u)",
        (
            "tests/test_acceptance.py::test_criterion_05_max_mean_connected_graphs_orders_3_to_7",
            "tests/test_cli.py::test_verify_table2_small",
        ),
    ),
    Mutant(
        "degree-filter-no-size-equals-top", "cographmean/enumeration.py",
        "            if size < top or size == top and nbrs & at_top:",
        "            if size < top:",
        (
            f"{_SEARCH}::test_subset_sum_is_the_count_through_the_new_vertex[4]",
            f"{_SEARCH}::test_subset_sum_is_the_count_through_the_new_vertex[5]",
        ),
    ),
    Mutant(
        "degree-filter-minimum-degree", "cographmean/enumeration.py",
        "        top = max(a.bit_count() for a in base)",
        "        top = min(a.bit_count() for a in base)",
        (
            f"{_SEARCH}::test_subset_sum_is_the_count_through_the_new_vertex[4]",
            f"{_SEARCH}::test_subset_sum_is_the_count_through_the_new_vertex[5]",
        ),
    ),
    # -- the connected-graph search (subset sum) ------------------------
    Mutant(
        "subset-term-parity-of-size", "cographmean/verify.py",
        "    return (-value, -deriv) if parts & 1 else (value, deriv)",
        "    return (-value, -deriv) if subset.bit_count() & 1 else (value, deriv)",
        (
            f"{_SEARCH}::test_base_plus_new_vertex_score_is_the_polynomial[5]",
            f"{_SEARCH}::test_subset_sum_is_the_count_through_the_new_vertex[5]",
        ),
    ),
    Mutant(
        "subset-term-open-neighbourhood", "cographmean/verify.py",
        "    closed = rest = subset",
        "    closed, rest = 0, subset",
        (
            f"{_SEARCH}::test_extremal_search_matches_the_oracle_on_connected_graphs[4-max]",
            "tests/test_acceptance.py::test_criterion_05_max_mean_connected_graphs_orders_3_to_7",
        ),
    ),
    Mutant(
        "subset-sum-no-empty-term", "cographmean/verify.py",
        "        term = terms.get(subset)",
        "        term = terms.get(subset) if subset else (0, 0)",
        (
            f"{_SEARCH}::test_extremal_search_matches_the_oracle_on_connected_graphs[1-max]",
            "tests/test_acceptance.py::test_criterion_05_max_mean_connected_graphs_orders_3_to_7",
        ),
    ),
    Mutant(
        "scored-extension-base-alone", "cographmean/verify.py",
        "            yield base, nbrs, base_v + v, base_d + d",
        "            yield base, nbrs, base_v, base_d",
        (
            "tests/test_acceptance.py::test_criterion_05_max_mean_connected_graphs_orders_3_to_7",
            "tests/test_acceptance.py::test_criterion_06_path_is_unique_min_orders_3_to_7",
        ),
    ),
    Mutant(
        "search-sign-always-max", "cographmean/verify.py",
        "    sign = 1 if objective is Objective.GLOBAL_MEAN_MAX else -1",
        "    sign = 1",
        (
            "tests/test_verify.py::test_extremal_search_min_order5",
            f"{_SEARCH}::test_extremal_search_matches_the_oracle_on_connected_graphs[5-min]",
        ),
    ),
    Mutant(
        "extremes-comparison-swapped", "cographmean/verify.py",
        "            lambda x, y: sign * _cmp_means(x, y),",
        "            lambda x, y: sign * _cmp_means(y, x),",
        (
            "tests/test_acceptance.py::test_criterion_05_max_mean_connected_graphs_orders_3_to_7",
            "tests/test_acceptance.py::test_criterion_06_path_is_unique_min_orders_3_to_7",
        ),
    ),
    Mutant(
        "extremes-runner-up-ge", "cographmean/verify.py",
        "        elif second is None or ahead(score, second) > 0:",
        "        elif second is None or ahead(score, second) >= 0:",
        (
            "tests/test_verify.py::test_extremes_keeps_the_first_score_of_each_mean[1-expected0]",
        ),
    ),
    Mutant(
        "extremes-best-not-demoted", "cographmean/verify.py",
        "            best, second, tied = score, best, [item]",
        "            best, tied = score, [item]",
        (
            "tests/test_verify.py::test_extremes_maximises_and_minimises[1-expected0]",
            f"{_SEARCH}::test_tie_between_two_classes_is_not_unique",
        ),
    ),
    Mutant(
        "tied-graph-forms-as-list", "cographmean/verify.py",
        "        forms = {\n"
        "            emit_graph6(canonical_graph(Graph._make(order, _extend(base, nbrs))))\n"
        "            for base, nbrs in tied\n"
        "        }",
        "        forms = [\n"
        "            emit_graph6(canonical_graph(Graph._make(order, _extend(base, nbrs))))\n"
        "            for base, nbrs in tied\n"
        "        ]",
        (
            f"{_SEARCH}::test_tie_between_two_extensions_of_one_class_is_unique",
            f"{_SEARCH}::test_extremal_search_matches_the_oracle_on_connected_graphs[5-min]",
        ),
    ),
    Mutant(
        "grid-loses-an-edge", "cographmean/verify.py",
        "            if c + 1 < cols:",
        "            if c + 2 < cols:",
        (
            "tests/test_verify.py::test_path_and_grid_constructors",
            "tests/test_acceptance.py::test_criterion_05_grid_constant_as_specified",
        ),
    ),
    # -- the knapsack -----------------------------------------------------
    Mutant(
        "dinkelbach-stops-at-nonpositive", "cographmean/knapsack.py",
        "        if not entries or entries[0][0] == 0:",
        "        if not entries or entries[0][0] <= 0:",
        (
            f"{_KNAPSACK}::test_no_start_gives_the_cold_results[connected-False]",
            "tests/test_verify.py::test_extremal_search_min_order5",
        ),
    ),
    Mutant(
        "dinkelbach-stops-at-nonnegative", "cographmean/knapsack.py",
        "        if not entries or entries[0][0] == 0:",
        "        if not entries or entries[0][0] >= 0:",
        (
            f"{_KNAPSACK}::test_knapsack_matches_enumeration[cographs-9-max]",
            f"{_KNAPSACK}::test_warm_start_gives_the_cold_report[max-mean-table-connected-cographs]",
        ),
    ),
    Mutant(
        "dinkelbach-one-table", "cographmean/knapsack.py",
        "        if not entries or entries[0][0] == 0:",
        "        if True:",
        (
            f"{_KNAPSACK}::test_knapsack_matches_enumeration[cographs-9-max]",
            f"{_KNAPSACK}::test_warm_start_gives_the_cold_report[max-mean-table-connected-cographs]",
        ),
    ),
    Mutant(
        "runner-up-seeded-at-winner", "cographmean/knapsack.py",
        "        family, n, sign, len(forms) + 1, _pair_mean(top[1][1:]), best",
        "        family, n, sign, len(forms) + 1, best, best",
        (
            f"{_KNAPSACK}::test_claimed_star_mean_is_certified_with_two_tables",
        ),
    ),
    Mutant(
        "gap-run-keeps-only-winners", "cographmean/knapsack.py",
        "        family, n, sign, len(forms) + 1, _pair_mean(top[1][1:]), best",
        "        family, n, sign, len(forms), _pair_mean(top[1][1:]), best",
        (
            f"{_KNAPSACK}::test_knapsack_matches_enumeration[cographs-9-max]",
            f"{_KNAPSACK}::test_knapsack_matches_enumeration[connected-cographs-12-max]",
        ),
    ),
    Mutant(
        "copies-no-runner-up-entries", "cographmean/knapsack.py",
        "    for r in range(min(j, keep - 1) + 1):",
        "    for r in range(1):",
        (
            f"{_KNAPSACK}::test_knapsack_matches_enumeration[cographs-9-max]",
            f"{_KNAPSACK}::test_tables_rank_and_rebuild_like_enumeration",
        ),
    ),
    Mutant(
        "no-h-correction-under-join", "cographmean/knapsack.py",
        "                if kind == JOIN:\n"
        "                    pool = [_sub(e, self.h[c]) for e in pool]\n",
        "",
        (
            f"{_KNAPSACK}::test_knapsack_matches_enumeration[cographs-9-max]",
            f"{_KNAPSACK}::test_tables_rank_and_rebuild_like_enumeration",
        ),
    ),
    # -- the sweeps -------------------------------------------------------
    Mutant(
        "run-sweep-drops-failures", "cographmean/sweeps.py",
        "        (log if isinstance(row, str) else failures).append(row)",
        "        if isinstance(row, str):\n            log.append(row)",
        (
            "tests/test_verify.py::test_inequality_sweep_failure_keeps_rows_and_log",
            "tests/test_verify.py::test_structural_sweep_failure_keeps_rows_and_log",
        ),
    ),
    Mutant(
        "misses-drop-point-keys", "cographmean/sweeps.py",
        '            yield {**dict(zip(("n", "s"), point)), **extra}',
        "            yield {**extra}",
        (
            "tests/test_verify.py::test_inequality_sweep_failure_keeps_rows_and_log",
        ),
    ),
    Mutant(
        "mstar-no-offset", "cographmean/sweeps.py",
        "    return (value - n, deriv - n) if value > n else (1, 0)",
        "    return (value, deriv) if value > n else (1, 0)",
        (
            "tests/test_verify.py::test_structural_theorems_small_window",
            "tests/test_integer_means.py::test_pairs_match_the_polynomials_on_every_cotree[4]",
        ),
    ),
    Mutant(
        "leaf-row-off-by-one-in-m", "cographmean/sweeps.py",
        "        join_v, join_d = _power_pair(1, node.leaf_count - 1)",
        "        join_v, join_d = _power_pair(1, node.leaf_count - 2)",
        (
            f"{_LOCAL}::test_surplus_rows_equal_bruteforce_rows",
            f"{_LOCAL}::test_integer_rows_equal_fraction_rows[_local_floor_rows-fraction_floor_rows]",
        ),
    ),
    Mutant(
        "leaf-row-off-by-one-in-s", "cographmean/sweeps.py",
        "            part_v, part_d = _power_pair(1, child.leaf_count - 1)",
        "            part_v, part_d = _power_pair(1, child.leaf_count)",
        (
            f"{_LOCAL}::test_surplus_rows_equal_bruteforce_rows",
            f"{_LOCAL}::test_integer_rows_equal_fraction_rows[_local_floor_rows-fraction_floor_rows]",
        ),
    ),
    Mutant(
        "local-floor-le", "cographmean/sweeps.py",
        "                if twice < floor:",
        "                if twice <= floor:",
        (
            f"{_LOCAL}::test_integer_rows_equal_fraction_rows[_local_floor_rows-fraction_floor_rows]",
            "tests/test_verify.py::test_structural_theorems_small_window",
        ),
    ),
    Mutant(
        "local-floor-equality-from-1", "cographmean/sweeps.py",
        "                elif twice == floor and n >= 2:",
        "                elif twice == floor and n >= 1:",
        (
            f"{_LOCAL}::test_integer_rows_equal_fraction_rows[_local_floor_rows-fraction_floor_rows]",
        ),
    ),
    Mutant(
        "dominance-equality-from-3", "cographmean/sweeps.py",
        "                if ahead < 0 or (n >= 2 and ahead == 0):",
        "                if ahead < 0 or (n >= 3 and ahead == 0):",
        (
            f"{_LOCAL}::test_integer_rows_equal_fraction_rows_when_the_sweeps_fail[_local_dominates_rows-fraction_dominates_rows]",
        ),
    ),
    Mutant(
        "cut-leaf-always-none", "cographmean/sweeps.py",
        "    return 0 if cut else None",
        "    return None",
        (
            f"{_LOCAL}::test_cut_leaf_is_the_only_vertex_whose_removal_disconnects",
            f"{_LOCAL}::test_surplus_rows_equal_bruteforce_rows",
        ),
    ),
    Mutant(
        "surplus-ge", "cographmean/sweeps.py",
        "            if not any(2 * value > total for value, _ in leaves):",
        "            if not any(2 * value >= total for value, _ in leaves):",
        (
            f"{_LOCAL}::test_surplus_means_more_than_half_the_connected_sets",
        ),
    ),
    Mutant(
        "caterpillar-pair-no-leaf-singletons", "cographmean/sweeps.py",
        "    value = deriv = sum(leaves)",
        "    value, deriv = 0, sum(leaves)",
        (
            "tests/test_verify.py::test_tree_dp_matches_subset_count_on_every_caterpillar[5]",
            f"{_LOCAL}::test_a_missing_local_counterexample_is_a_fail_verdict",
        ),
    ),
    Mutant(
        "caterpillar-segment-size-off-by-one", "cographmean/sweeps.py",
        "            v, d = _power_pair(j - i + 1, s)",
        "            v, d = _power_pair(j - i + 2, s)",
        (
            "tests/test_verify.py::test_tree_dp_matches_subset_count_on_every_caterpillar[5]",
            f"{_LOCAL}::test_a_missing_local_counterexample_is_a_fail_verdict",
        ),
    ),
]


def occurrences(snippet: str) -> int:
    """How many times ``snippet`` occurs in the Python files under ``src/``."""
    return sum(path.read_text().count(snippet) for path in SRC.rglob("*.py"))


def _failed(output: str) -> set[str]:
    """The node ids, and the files that failed to collect, of a ``-rfE`` report."""
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", output, re.M))


def run(mutant: Mutant, workdir: Path) -> list[str]:
    """Apply ``mutant`` to a fresh copy of ``src/``, run its tests, and
    return the named tests that passed (none: the mutant is killed)."""
    copy = workdir / mutant.name
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    target = copy / mutant.file
    text = target.read_text()
    if text.count(mutant.snippet) != 1:
        raise SystemExit(f"{mutant.name}: the snippet does not occur once in {mutant.file}")
    target.write_text(text.replace(mutant.snippet, mutant.replacement))
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{mutant.name}: its tests ran over {TIMEOUT} s; name faster ones")
    if "ImportError while loading conftest" in proc.stderr:
        return []  # the package no longer imports, so every test fails
    if proc.returncode not in (0, 1, 2):  # 2: a test module failed to import
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}")
    failed = _failed(proc.stdout)
    return [t for t in mutant.tests if t not in failed and t.split("::")[0] not in failed]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    known = {m.name for m in MUTANTS}
    unknown = sorted(set(args.names) - known)
    if unknown:
        parser.error(f"no mutant named {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    if args.list:
        for m in chosen:
            print(f"{m.name}\t{m.file}\t{' '.join(m.tests)}")
        return 0
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for m in chosen:
            passed = run(m, Path(tmp))
            survived += bool(passed)
            print(f"{'survived' if passed else 'killed'}\t{m.name}\t{' '.join(passed)}", flush=True)
    print(f"{len(chosen) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
