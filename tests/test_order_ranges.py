"""Every order range goes through ``errors.check_order``: one table of entry
points, each with its stated range, checked at both ends.

Just outside the range each entry point raises ``OrderOutOfRange`` with the
message ``"{what} supports {lo}..{hi}, got {n}"``; at the ends it accepts
where that is cheap.  A generator checks its order when called, so the
calls here never iterate.
"""

import inspect

import pytest

from cographmean import (
    Graph,
    complete,
    complete_bipartite,
    cotree_to_graph,
    edgeless,
    enumerate_caterpillars,
    enumerate_connected_graphs,
    enumerate_cotrees,
    extremal_search,
    find_local_counterexample,
    from_edge_list,
    generate,
    max_mean_connected_cograph,
    parse_graph6,
    phi_bruteforce,
    phi_cotree,
    phi_local_bruteforce,
    phi_local_cotree,
    skillet,
    star,
    verify_inequality_sweeps,
    verify_structural_theorems,
)
from cographmean.cotree import LEAF_TREE, ROOT_KINDS, UNION, Cotree, Family
from cographmean.enumeration import MAX_CATERPILLAR_ORDER, MAX_COTREE_LEAVES, MAX_GRAPH_ENUM_ORDER
from cographmean.errors import OrderOutOfRange
from cographmean.graph import MAX_ORDER
from cographmean.poly import DEFAULT_BRUTE_FORCE_CAP
from cographmean.sweeps import MAX_INEQUALITY_ORDER, MAX_STRUCTURAL_ORDER
from cographmean.verify import (
    DISCONNECTED_MAX,
    MAX_GRAPH_SEARCH_ORDER,
    PATH_MIN,
    SKILLET_MIN,
    STAR_MAX,
    TABLE1,
    TABLE2,
    Objective,
    run_claim,
)


def _edgeless_graph(n):
    return Graph(n, (0,) * max(n, 0))


def _edgeless_cotree(n):
    return LEAF_TREE if n == 1 else Cotree(UNION, (LEAF_TREE,) * n)


def _graph6(n):
    """The graph6 string of the edgeless graph on n vertices, for any n >= 0."""
    if n < 63:
        header = chr(63 + n)
    else:
        header = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    return header + "?" * ((n * (n - 1) // 2 + 5) // 6)


def _row(entry, what, lo, hi, call, accepted=(), floor=None, stream=False):
    """One entry point: ``call(n)`` at order n.  Orders below ``floor`` have
    no input (a cotree has a leaf), so lo - 1 is skipped when under it.  A
    ``stream`` returns a generator."""
    rejected = [n for n in (lo - 1, hi + 1) if floor is None or n >= floor]
    return pytest.param(what, lo, hi, call, rejected, accepted, stream, id=entry)


def _claim_row(name, claim):
    return _row(
        f"run_claim-{name}", claim.range_label, claim.lo, claim.hi,
        lambda n: run_claim(claim, n), accepted=(claim.lo,),
    )


ROWS = [
    _row("Graph", "graph", 1, MAX_ORDER, _edgeless_graph, (1, MAX_ORDER)),
    _row("from_edge_list", "graph", 1, MAX_ORDER, lambda n: from_edge_list(n, ()), (1, MAX_ORDER)),
    _row("parse_graph6", "graph6", 1, MAX_ORDER, lambda n: parse_graph6(_graph6(n)), (1, MAX_ORDER)),
    _row(
        "cotree_to_graph", "cotree realization", 1, MAX_ORDER,
        lambda n: cotree_to_graph(_edgeless_cotree(n)), (1, MAX_ORDER), floor=1,
    ),
    _row("edgeless", "edgeless graph", 1, MAX_ORDER, edgeless, (1, MAX_ORDER)),
    _row("complete", "complete graph", 1, MAX_ORDER, complete, (1, MAX_ORDER)),
    _row("star", "star", 1, MAX_ORDER, star, (1, MAX_ORDER)),
    _row("skillet", "skillet", 3, MAX_ORDER, skillet, (3, MAX_ORDER)),
    # Equal parts, so a part past 63 is caught as a part, not by the total.
    _row(
        "complete_bipartite-part", "complete bipartite part", 1, MAX_ORDER - 1,
        lambda n: complete_bipartite(n, n), (1,),
    ),
    # Two parts of at least 1 make at least 2, so only the top can be missed.
    _row(
        "complete_bipartite-graph", "complete bipartite graph", 2, MAX_ORDER,
        lambda n: complete_bipartite(1, n - 1), (2, MAX_ORDER), floor=3,
    ),
    *[
        _row(
            f"enumerate_cotrees-{family.value}", "cotree enumeration", 1, MAX_COTREE_LEAVES,
            lambda n, family=family: enumerate_cotrees(n, family), (1, MAX_COTREE_LEAVES),
            stream=True,
        )
        for family in ROOT_KINDS
    ],
    _row(
        "enumerate_connected_graphs", "graph enumeration", 1, MAX_GRAPH_ENUM_ORDER,
        enumerate_connected_graphs, (1, MAX_GRAPH_ENUM_ORDER), stream=True,
    ),
    _row(
        "enumerate_caterpillars", "caterpillar enumeration", 2, MAX_CATERPILLAR_ORDER,
        enumerate_caterpillars, (2, MAX_CATERPILLAR_ORDER), stream=True,
    ),
    *[
        _row(
            f"generate-{family.value}", what, lo, hi,
            lambda n, family=family: generate(family, n), (lo, hi), stream=True,
        )
        for family, what, lo, hi in [
            *[(f, "cotree enumeration", 1, MAX_COTREE_LEAVES) for f in ROOT_KINDS],
            (Family.CONNECTED_GRAPHS, "graph enumeration", 1, MAX_GRAPH_ENUM_ORDER),
            (Family.CATERPILLARS, "caterpillar enumeration", 2, MAX_CATERPILLAR_ORDER),
        ]
    ],
    _row(
        "phi_cotree", "cotree polynomial", 1, MAX_ORDER,
        lambda n: phi_cotree(_edgeless_cotree(n)), (1, MAX_ORDER), floor=1,
    ),
    _row(
        "phi_local_cotree", "local cotree polynomial", 1, MAX_ORDER,
        lambda n: phi_local_cotree(_edgeless_cotree(n), 0), (1, MAX_ORDER), floor=1,
    ),
    # The cap's range starts at 0 for the empty base of the order-1 search;
    # a Graph has at least one vertex.
    _row(
        "phi_bruteforce", "brute-force cap", 0, DEFAULT_BRUTE_FORCE_CAP,
        lambda n: phi_bruteforce(_edgeless_graph(n)), (1, DEFAULT_BRUTE_FORCE_CAP), floor=1,
    ),
    _row(
        "phi_bruteforce-cap", "brute-force cap", 0, 5,
        lambda n: phi_bruteforce(_edgeless_graph(n), 5), (1, 5), floor=1,
    ),
    _row(
        "phi_local_bruteforce", "brute-force cap", 0, 5,
        lambda n: phi_local_bruteforce(_edgeless_graph(n), 0, 5), (1, 5), floor=1,
    ),
    _row(
        "verify_inequality_sweeps", "inequality sweep", 9, MAX_INEQUALITY_ORDER,
        verify_inequality_sweeps, (9,),
    ),
    _row(
        "verify_structural_theorems", "structural sweep", 2, MAX_STRUCTURAL_ORDER,
        verify_structural_theorems, (2,),
    ),
    _row(
        "find_local_counterexample", "local-mean counterexample", 14, MAX_CATERPILLAR_ORDER + 1,
        find_local_counterexample, (14, MAX_CATERPILLAR_ORDER + 1),
    ),
    _row(
        "max_mean_connected_cograph", "maximum-mean connected cograph", 1, MAX_ORDER,
        max_mean_connected_cograph, (1, MAX_ORDER),
    ),
    *[
        _row(
            f"extremal_search-{family.value}-{objective.value}", f"{family.value} search", 1, hi,
            lambda n, family=family, objective=objective: extremal_search(family, n, objective),
            (1,),
        )
        for family, hi in [
            *[(f, MAX_ORDER) for f in ROOT_KINDS],
            (Family.CONNECTED_GRAPHS, MAX_GRAPH_SEARCH_ORDER),
        ]
        for objective in Objective
    ],
    *[
        _claim_row(name, claim)
        for name, claim in [
            ("TABLE1", TABLE1), ("STAR_MAX", STAR_MAX), ("SKILLET_MIN", SKILLET_MIN),
            ("DISCONNECTED_MAX", DISCONNECTED_MAX), ("TABLE2", TABLE2), ("PATH_MIN", PATH_MIN),
        ]
    ],
]


@pytest.mark.parametrize("what, lo, hi, call, rejected, accepted, stream", ROWS)
def test_order_range_of_every_entry_point(what, lo, hi, call, rejected, accepted, stream):
    assert rejected  # every row checks at least one side
    for n in rejected:
        with pytest.raises(OrderOutOfRange) as caught:
            call(n)  # a stream raises here, before its first item
        assert str(caught.value) == f"{what} supports {lo}..{hi}, got {n}"
    for n in accepted:
        result = call(n)
        # A stream is a generator, so a caller can close() it unconsumed.
        assert inspect.isgenerator(result) == stream
