"""Exact-arithmetic toolkit for connected-induced-subgraph statistics.

Computes the generating polynomial of connected induced subgraphs (global
and per-vertex), the derived means, densities, and node reliability, with
cographs handled structurally through canonical cotrees and arbitrary small
graphs by enumerating their connected sets.  Ships deterministic enumerators
for cographs, small graphs, and caterpillars, and a verification harness
that re-derives the package's headline extremal facts exactly.

``import cographmean`` loads no submodule: each public name imports its
module on first use (PEP 562), so a program that needs only the cotree
recursion never compiles the enumerators or the verification harness.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it provides: the one list of the package's
# public names.
_EXPORTS = {
    "cotree": (
        "Cotree",
        "canonicalize",
        "complement_cotree",
        "complete",
        "complete_bipartite",
        "cotree_to_graph",
        "edgeless",
        "format_cotree",
        "graph_to_cotree",
        "graph_to_cotree_with_leaves",
        "is_cograph",
        "is_connected_cograph",
        "parse_cotree",
        "skillet",
        "star",
    ),
    "enumeration": (
        "Family",
        "GeneratorSpec",
        "canonical_graph",
        "enumerate_caterpillars",
        "enumerate_connected_graphs",
        "enumerate_cotrees",
        "generate",
    ),
    "errors": ("CographMeanError",),
    "graph": (
        "MAX_ORDER",
        "Graph",
        "VertexSubset",
        "complement",
        "connected_components",
        "emit_graph6",
        "from_edge_list",
        "induced_subgraph",
        "is_connected",
        "is_connected_subset",
        "parse_graph6",
    ),
    "poly": (
        "DEFAULT_BRUTE_FORCE_CAP",
        "MeanFamily",
        "SubgraphPolynomial",
        "closed_form_means",
        "closed_form_psi",
        "density",
        "global_mean",
        "mstar_mean",
        "node_reliability",
        "phi_bruteforce",
        "phi_cotree",
        "phi_local_bruteforce",
        "phi_local_cotree",
    ),
    "verify": (
        "ExtremalReport",
        "LocalCounterexample",
        "Objective",
        "TheoremVerdict",
        "extremal_search",
        "find_local_counterexample",
        "grid_graph",
        "max_mean_connected_cograph",
        "path_graph",
        "theta_graph",
        "verify_disconnected_max",
        "verify_inequality_sweeps",
        "verify_local_counterexample",
        "verify_path_min_conjecture",
        "verify_skillet_min",
        "verify_star_max",
        "verify_structural_theorems",
        "verify_table1",
        "verify_table2",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # Also how ``from cographmean import verify`` falls through to the
        # submodule import.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
