"""Exact-arithmetic toolkit for connected-induced-subgraph statistics.

Computes the generating polynomial of connected induced subgraphs (global
and per-vertex), the derived means, densities, and node reliability, with
cographs handled structurally through canonical cotrees and arbitrary small
graphs by enumerating their connected sets.  Ships deterministic enumerators
for cographs, small graphs, and caterpillars, and a verification harness
that re-derives the package's headline extremal facts exactly.
"""

from .cotree import (
    Cotree,
    canonicalize,
    complement_cotree,
    complete,
    complete_bipartite,
    cotree_to_graph,
    edgeless,
    format_cotree,
    graph_to_cotree,
    graph_to_cotree_with_leaves,
    is_cograph,
    is_connected_cograph,
    parse_cotree,
    skillet,
    star,
)
from .enumeration import (
    Family,
    GeneratorSpec,
    canonical_graph,
    enumerate_caterpillars,
    enumerate_connected_graphs,
    enumerate_cotrees,
    generate,
)
from .errors import CographMeanError
from .graph import (
    MAX_ORDER,
    Graph,
    VertexSubset,
    complement,
    connected_components,
    emit_graph6,
    from_edge_list,
    induced_subgraph,
    is_connected,
    is_connected_subset,
    parse_graph6,
)
from .poly import (
    DEFAULT_BRUTE_FORCE_CAP,
    MeanFamily,
    SubgraphPolynomial,
    closed_form_means,
    closed_form_psi,
    density,
    global_mean,
    mstar_mean,
    node_reliability,
    phi_bruteforce,
    phi_cotree,
    phi_local_bruteforce,
    phi_local_cotree,
)
from .verify import (
    ExtremalReport,
    LocalCounterexample,
    Objective,
    TheoremVerdict,
    extremal_search,
    find_local_counterexample,
    grid_graph,
    max_mean_connected_cograph,
    path_graph,
    theta_graph,
    verify_disconnected_max,
    verify_inequality_sweeps,
    verify_local_counterexample,
    verify_path_min_conjecture,
    verify_skillet_min,
    verify_star_max,
    verify_structural_theorems,
    verify_table1,
    verify_table2,
)

__version__ = "0.1.0"
