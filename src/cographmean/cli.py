"""Command-line interface.

Subcommands: ``mean``, ``reliability``, ``enumerate``, ``verify``.  Graph
inputs are auto-detected: a J, U, or L that is alone or followed (after
optional whitespace) by ``(`` starts a cotree expression, anything else is
graph6.  All numeric output is exact
("num/den" strings); ``--decimal`` appends a clearly marked 12-digit
approximation.  Exit codes: 0 all good, 1 verification failure, 2
usage/parse error, 141 stdout closed by the reader.

``json`` and the ``verify`` module are imported by the commands that use
them, so a ``mean`` or ``reliability`` process loads neither.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .cotree import (
    Cotree,
    cotree_to_graph,
    format_cotree,
    graph_to_cotree,
    graph_to_cotree_with_leaves,
    parse_cotree,
)
# The enumerate parser takes its choices from Family, so this one stays eager.
from .enumeration import Family, GeneratorSpec, generate
from .errors import CographMeanError, ConfigError, NotACograph, VertexOutOfRange
from .graph import Graph, emit_graph6, parse_graph6
from .poly import (
    global_mean,
    density,
    mstar_mean,
    node_reliability,
    phi_bruteforce,
    phi_cotree,
    phi_local_bruteforce,
    phi_local_cotree,
)

_ENV_PREFIX = "COGRAPHMEAN_"
_FORMATS = ("json", "tsv")


def _brute_force_cap(args: argparse.Namespace) -> int | None:
    """The connected-set counter's order cap for ``mean`` and ``reliability``:
    the flag, then the environment, then (None) the counter's default."""
    cap, source = args.brute_force_cap, "--brute-force-cap"
    env = os.environ.get(_ENV_PREFIX + "BRUTE_FORCE_CAP")
    if cap is None and env:
        source = f"{_ENV_PREFIX}BRUTE_FORCE_CAP"
        try:
            cap = int(env)
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from None
    if cap is not None and cap < 1:
        raise ConfigError(f"{source}: expected an order of at least 1, got {cap}")
    return cap


def _output_format(args: argparse.Namespace) -> str:
    """The output format of ``verify``: the flag, then the environment."""
    fmt = args.format or os.environ.get(_ENV_PREFIX + "FORMAT") or "json"
    if fmt not in _FORMATS:
        raise ConfigError(
            f"{_ENV_PREFIX}FORMAT: expected one of {', '.join(_FORMATS)}, got {fmt!r}"
        )
    return fmt


def _parse_input(text: str) -> Cotree | Graph:
    # graph6 strings of order 11, 13 or 22 also start with J, L or U, but
    # neither "(" nor whitespace is ever a graph6 byte.
    rest = text[1:].lstrip()
    if text[:1] in ("J", "U", "L") and (not rest or rest[0] == "("):
        return parse_cotree(text)
    return parse_graph6(text)


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _decimal12(value: Fraction) -> str:
    """Round to 12 fractional digits, computed in integer arithmetic."""
    scaled = value * 10**12
    whole = scaled.numerator // scaled.denominator
    if 2 * (scaled - whole) >= 1:
        whole += 1
    sign = "-" if whole < 0 else ""
    digits = abs(whole)
    return f"{sign}{digits // 10**12}.{digits % 10**12:012d}"


def _format_value(value: Fraction, decimal: bool) -> str:
    text = str(value)
    if decimal:
        text += f" ~{_decimal12(value)}"
    return text


# ---------------------------------------------------------------------------
# mean / reliability
# ---------------------------------------------------------------------------


def _phi_for_input(obj: Cotree | Graph, cap: int | None, cotree_only: bool):
    if isinstance(obj, Cotree):
        return phi_cotree(obj)
    try:
        tree = graph_to_cotree(obj)
    except NotACograph:
        if cotree_only:
            raise
        return phi_bruteforce(obj, cap)
    return phi_cotree(tree)


def _local_phi_for_input(obj: Cotree | Graph, v: int, cap: int | None, cotree_only: bool):
    # A cotree's leaves are its vertices, so both inputs get the same message.
    n = obj.leaf_count if isinstance(obj, Cotree) else obj.order
    if not 0 <= v < n:
        raise VertexOutOfRange(f"vertex {v} outside 0..{n - 1}")
    if isinstance(obj, Cotree):
        return phi_local_cotree(obj, v)
    try:
        tree, leaf = graph_to_cotree_with_leaves(obj)
    except NotACograph:
        if cotree_only:
            raise
        return phi_local_bruteforce(obj, v, cap)
    return phi_local_cotree(tree, leaf[v])


def _cmd_mean(args: argparse.Namespace) -> int:
    cap = _brute_force_cap(args)
    obj = _parse_input(args.input)
    lines: list[tuple[str, str]] = []
    # The local polynomial comes first, so that a bad vertex is rejected
    # before the global count.  "mean" is printed only without --local.
    if args.local is not None:
        lp = _local_phi_for_input(obj, args.local, cap, args.cotree_only)
        lines.append(("local", _format_value(global_mean(lp), args.decimal)))
    want_global = not (args.mstar or args.density or args.local is not None)
    if want_global or args.mstar or args.density or args.poly:
        p = _phi_for_input(obj, cap, args.cotree_only)
    if want_global:
        lines.append(("mean", _format_value(global_mean(p), args.decimal)))
    if args.mstar:
        lines.append(("mstar", _format_value(mstar_mean(p), args.decimal)))
    if args.density:
        lines.append(("density", _format_value(density(p), args.decimal)))
    if len(lines) == 1:
        print(lines[0][1])
    else:
        for label, value in lines:
            print(f"{label}\t{value}")
    if args.poly:
        import json

        print(f"poly\t{json.dumps(p.to_json_dict(), sort_keys=True)}")
        if args.local is not None:
            print(f"local_poly\t{json.dumps(lp.to_json_dict(), sort_keys=True)}")
    return 0


def _cmd_reliability(args: argparse.Namespace) -> int:
    cap = _brute_force_cap(args)
    obj = _parse_input(args.input)
    p = _phi_for_input(obj, cap, cotree_only=False)
    print(_format_value(node_reliability(p, args.p), args.decimal))
    return 0


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> int:
    family = Family(args.family)
    emit = args.emit
    if emit is None:
        emit = "graph6" if family in (Family.CONNECTED_GRAPHS, Family.CATERPILLARS) else "cotree"
    spec = GeneratorSpec(family, args.order)
    for item in generate(spec):
        if emit == "cotree":
            if isinstance(item, Graph):
                item = graph_to_cotree(item)  # NotACograph escapes as a usage error
            print(format_cotree(item))
        else:
            if isinstance(item, Cotree):
                item = cotree_to_graph(item)
            print(emit_graph6(item))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# suite -> (default --nmax, runner).  A runner takes the ``verify`` module,
# which only ``_cmd_verify`` imports, and the order cap.  The key order is
# the order of ``verify all``.
_SUITES = {
    "table1": (6, lambda v, n: [v.verify_table1(n)]),
    "table2": (7, lambda v, n: [v.verify_table2(n)]),
    "skillet-min": (12, lambda v, n: [v.verify_skillet_min(n)]),
    "star-max": (12, lambda v, n: [v.verify_star_max(n)]),
    "disconnected-max": (10, lambda v, n: [v.verify_disconnected_max(n)]),
    "local-mean": (
        8,
        lambda v, n: v.verify_structural_theorems(n) + [v.verify_local_counterexample()],
    ),
    "inequalities": (64, lambda v, n: v.verify_inequality_sweeps(n)),
    "path-conjecture": (7, lambda v, n: [v.verify_path_min_conjecture(n)]),
}


def _emit_tsv(suites: list[dict]) -> str:
    rows = [("suite", "theorem", "range", "status")]
    for suite in suites:
        for v in suite["verdicts"]:
            rows.append((suite["suite"], v["theorem"], v["parameter_range"], v["status"]))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    return "\n".join(
        "\t".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all" and args.nmax is not None:
        # The suites' --nmax ranges do not overlap, so no single N fits them all.
        raise ConfigError(
            "--nmax applies to a single suite; "
            "'all' runs each suite over its default range"
        )
    output_format = _output_format(args)
    import json

    from . import verify

    names = list(_SUITES) if args.suite == "all" else [args.suite]
    suites = []
    all_pass = True
    for name in names:
        default_nmax, runner = _SUITES[name]
        nmax = default_nmax if args.nmax is None else args.nmax
        verdicts = runner(verify, nmax)
        suites.append(
            {
                "suite": name,
                "nmax": nmax,
                "verdicts": [v.to_json_dict() for v in verdicts],
            }
        )
        all_pass = all_pass and all(v.passed for v in verdicts)
    if output_format == "tsv":
        print(_emit_tsv(suites))
    else:
        payload = suites[0] if len(suites) == 1 else {"suites": suites}
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cographmean",
        description="Exact connected-induced-subgraph statistics for cographs "
        "and small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mean = sub.add_parser("mean", help="global/local/M* mean and density")
    p_mean.add_argument("input", help="cotree expression or graph6 string")
    p_mean.add_argument("--local", type=int, metavar="V", help="local mean at vertex V")
    p_mean.add_argument("--mstar", action="store_true", help="mean over order>=2 subgraphs")
    p_mean.add_argument("--density", action="store_true", help="mean divided by order")
    p_mean.add_argument("--poly", action="store_true", help="also print the polynomial")
    p_mean.add_argument(
        "--cotree-only",
        action="store_true",
        help="reject graph6 inputs that are not cographs instead of brute-forcing",
    )
    p_mean.add_argument("--decimal", action="store_true", help="append ~12-digit decimals")
    p_mean.add_argument("--brute-force-cap", type=int, help="order cap for non-cographs")
    p_mean.set_defaults(func=_cmd_mean)

    p_rel = sub.add_parser("reliability", help="exact node reliability at a rational p")
    p_rel.add_argument("input", help="cotree expression or graph6 string")
    p_rel.add_argument("--p", type=_fraction_arg, required=True, metavar="NUM/DEN")
    p_rel.add_argument("--decimal", action="store_true", help="append ~12-digit decimals")
    p_rel.add_argument("--brute-force-cap", type=int, help="order cap for non-cographs")
    p_rel.set_defaults(func=_cmd_reliability)

    p_enum = sub.add_parser("enumerate", help="stream an isomorphism-class family")
    p_enum.add_argument("family", choices=[f.value for f in Family])
    p_enum.add_argument("order", type=int)
    p_enum.add_argument("--emit", choices=["graph6", "cotree"])
    p_enum.set_defaults(func=_cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=list(_SUITES) + ["all"])
    p_verify.add_argument("--nmax", type=int, help="override the suite's order cap")
    p_verify.add_argument("--format", choices=_FORMATS)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CographMeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout.  Point stdout at devnull so that the
        # interpreter's flush at exit cannot raise again; 141 is 128 + SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
